// Package tgd models source-to-target tuple-generating dependencies
// (st tgds): formulas ∀x̄ (φ(x̄) → ∃ȳ ψ(x̄,ȳ)) with conjunctive body φ
// over the source schema and conjunctive head ψ over the target
// schema. It provides canonicalisation (logical equality up to
// variable renaming), the size measure used by the paper's objective,
// and a small text DSL with parser and printer.
package tgd

import (
	"fmt"
	"sort"
	"strings"

	"schemamap/internal/schema"
)

// Term is either a variable or a constant.
type Term struct {
	Name    string
	IsConst bool
}

// Var returns a variable term.
func Var(name string) Term { return Term{Name: name} }

// Const returns a constant term.
func Const(name string) Term { return Term{Name: name, IsConst: true} }

// String renders variables verbatim and constants single-quoted.
func (t Term) String() string {
	if t.IsConst {
		return "'" + t.Name + "'"
	}
	return t.Name
}

// Atom is a relational atom R(t1,...,tk).
type Atom struct {
	Rel  string
	Args []Term
}

// String renders the atom in DSL syntax.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", a.Rel, strings.Join(parts, ", "))
}

// Vars returns the distinct variable names in the atom, in order.
func (a Atom) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	for _, t := range a.Args {
		if !t.IsConst && !seen[t.Name] {
			seen[t.Name] = true
			out = append(out, t.Name)
		}
	}
	return out
}

// TGD is one source-to-target tgd. Universally quantified variables
// are those occurring in the body; head variables not in the body are
// implicitly existentially quantified.
type TGD struct {
	Body []Atom
	Head []Atom
}

// New builds a tgd from body and head atom lists.
func New(body, head []Atom) *TGD { return &TGD{Body: body, Head: head} }

// BodyVars returns the distinct body variable names in order of first
// occurrence.
func (d *TGD) BodyVars() []string { return atomsVars(d.Body) }

// HeadVars returns the distinct head variable names in order of first
// occurrence.
func (d *TGD) HeadVars() []string { return atomsVars(d.Head) }

// ExistVars returns the head variables that do not occur in the body:
// the existentially quantified variables.
func (d *TGD) ExistVars() []string {
	inBody := make(map[string]bool)
	for _, v := range d.BodyVars() {
		inBody[v] = true
	}
	var out []string
	for _, v := range d.HeadVars() {
		if !inBody[v] {
			out = append(out, v)
		}
	}
	return out
}

// Size returns the size measure used by the selection objective:
// the number of atoms (body plus head) plus the number of existential
// variables. This reproduces the appendix's size(θ1)=3, size(θ3)=4.
func (d *TGD) Size() int {
	return len(d.Body) + len(d.Head) + len(d.ExistVars())
}

// String renders the tgd in DSL syntax: body atoms, "->", head atoms,
// atoms separated by " & ".
func (d *TGD) String() string {
	return fmt.Sprintf("%s -> %s", joinAtoms(d.Body), joinAtoms(d.Head))
}

func joinAtoms(atoms []Atom) string {
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, " & ")
}

func atomsVars(atoms []Atom) []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range atoms {
		for _, v := range a.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// Validate checks the tgd against source and target schemas: body
// atoms must name source relations with correct arity, head atoms
// target relations; the tgd must be source-to-target and safe.
func (d *TGD) Validate(src, tgt *schema.Schema) error {
	if len(d.Body) == 0 {
		return fmt.Errorf("tgd %s: empty body", d)
	}
	if len(d.Head) == 0 {
		return fmt.Errorf("tgd %s: empty head", d)
	}
	for _, a := range d.Body {
		r := src.Relation(a.Rel)
		if r == nil {
			return fmt.Errorf("tgd %s: body atom %s not in source schema", d, a.Rel)
		}
		if r.Arity() != len(a.Args) {
			return fmt.Errorf("tgd %s: body atom %s has arity %d, want %d", d, a.Rel, len(a.Args), r.Arity())
		}
	}
	for _, a := range d.Head {
		r := tgt.Relation(a.Rel)
		if r == nil {
			return fmt.Errorf("tgd %s: head atom %s not in target schema", d, a.Rel)
		}
		if r.Arity() != len(a.Args) {
			return fmt.Errorf("tgd %s: head atom %s has arity %d, want %d", d, a.Rel, len(a.Args), r.Arity())
		}
	}
	return nil
}

// Canonical returns a canonical string for the tgd, invariant under
// variable renaming: atoms keep their order, variables are renamed
// v0, v1, ... in order of first occurrence (body first, then head).
// Two tgds with equal Canonical() are logically identical up to
// variable names (atom order is respected, so callers that want
// order-insensitive equality should sort atoms first; the generators
// in this repo emit atoms in a deterministic order).
func (d *TGD) Canonical() string {
	rename := make(map[string]string)
	next := 0
	ren := func(t Term) string {
		if t.IsConst {
			return "'" + t.Name + "'"
		}
		r, ok := rename[t.Name]
		if !ok {
			r = fmt.Sprintf("v%d", next)
			next++
			rename[t.Name] = r
		}
		return r
	}
	var b strings.Builder
	writeAtoms := func(atoms []Atom) {
		for i, a := range atoms {
			if i > 0 {
				b.WriteString(" & ")
			}
			b.WriteString(a.Rel)
			b.WriteByte('(')
			for j, t := range a.Args {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(ren(t))
			}
			b.WriteByte(')')
		}
	}
	writeAtoms(sortedAtoms(d.Body))
	b.WriteString(" -> ")
	writeAtoms(sortedAtoms(d.Head))
	return b.String()
}

// sortedAtoms returns the atoms sorted by a variable-name-insensitive
// key (relation name, then constant/variable shape), producing a
// deterministic atom order for canonicalisation. Ties keep input
// order (stable), which is sufficient for the generators in this repo.
func sortedAtoms(atoms []Atom) []Atom {
	out := append([]Atom(nil), atoms...)
	key := func(a Atom) string {
		var b strings.Builder
		b.WriteString(a.Rel)
		for _, t := range a.Args {
			if t.IsConst {
				b.WriteString("/'" + t.Name + "'")
			} else {
				b.WriteString("/?")
			}
		}
		return b.String()
	}
	sort.SliceStable(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}

// Equal reports logical equality up to variable renaming (and the
// atom-ordering convention of Canonical).
//
//lint:testonly tgd tests check canonical equality with it
func (d *TGD) Equal(other *TGD) bool {
	return d.Canonical() == other.Canonical()
}

// Mapping is an ordered set of tgds.
type Mapping []*TGD

// Size returns the summed size of the member tgds.
//
//lint:testonly tgd tests check the size measure with it
func (m Mapping) Size() int {
	n := 0
	for _, d := range m {
		n += d.Size()
	}
	return n
}

// Strings returns the DSL rendering of every tgd.
func (m Mapping) Strings() []string {
	out := make([]string, len(m))
	for i, d := range m {
		out[i] = d.String()
	}
	return out
}

// CanonicalSet returns the set of canonical forms of the member tgds.
func (m Mapping) CanonicalSet() map[string]bool {
	out := make(map[string]bool, len(m))
	for _, d := range m {
		out[d.Canonical()] = true
	}
	return out
}

// Dedup returns the mapping with logically duplicate tgds removed,
// keeping first occurrences.
func (m Mapping) Dedup() Mapping {
	seen := make(map[string]bool, len(m))
	out := make(Mapping, 0, len(m))
	for _, d := range m {
		c := d.Canonical()
		if !seen[c] {
			seen[c] = true
			out = append(out, d)
		}
	}
	return out
}

// Contains reports whether m contains a tgd logically equal to d.
func (m Mapping) Contains(d *TGD) bool {
	c := d.Canonical()
	for _, e := range m {
		if e.Canonical() == c {
			return true
		}
	}
	return false
}

// Validate validates every member against the schemas.
func (m Mapping) Validate(src, tgt *schema.Schema) error {
	for _, d := range m {
		if err := d.Validate(src, tgt); err != nil {
			return err
		}
	}
	return nil
}
