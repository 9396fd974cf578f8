// Package clio generates candidate st tgds from metadata evidence, in
// the style of the Clio mapping system (Fagin et al., 2009): it
// enumerates *logical associations* — relations connected by foreign-
// key joins — on both schemas, and for every pair of a source and a
// target association linked by attribute correspondences it emits a
// candidate tgd, with foreign-key joins becoming shared (possibly
// existential) variables.
//
// The real Clio is proprietary; this from-scratch reimplementation
// preserves the property the paper's setup relies on: the candidate
// set contains the gold mapping's tgds alongside structurally related
// distractors (projections of joins, partial associations, and — with
// noisy correspondences — cross-primitive candidates).
package clio

import (
	"fmt"
	"sort"

	"schemamap/internal/schema"
	"schemamap/internal/tgd"
)

// Options tune candidate generation.
type Options struct {
	// MaxAssociationSize caps the number of relations per logical
	// association (default 3, enough for N-to-M structures).
	MaxAssociationSize int
	// MaxCandidates caps the emitted candidate count (0 = unlimited).
	// Candidates are emitted in a deterministic order, so the cap is
	// reproducible.
	MaxCandidates int
}

// DefaultOptions returns the package defaults.
func DefaultOptions() Options {
	return Options{MaxAssociationSize: 3}
}

// Association is a connected set of relations joined by foreign keys.
type Association struct {
	// Rels lists the member relation names in discovery order.
	Rels []string
	// Joins lists the foreign keys realised inside the association.
	Joins []schema.ForeignKey
}

// key returns a canonical identity (sorted relation names).
func (a Association) key() string {
	rs := append([]string(nil), a.Rels...)
	sort.Strings(rs)
	return fmt.Sprint(rs)
}

// Associations enumerates the connected relation sets of the schema up
// to the given size: every single relation, plus every set reachable
// by repeatedly adding a relation linked by a foreign key to a member.
func Associations(s *schema.Schema, maxSize int) []Association {
	if maxSize <= 0 {
		maxSize = 3
	}
	var out []Association
	seen := make(map[string]bool)

	var grow func(a Association)
	grow = func(a Association) {
		k := a.key()
		if seen[k] {
			return
		}
		seen[k] = true
		out = append(out, a)
		if len(a.Rels) >= maxSize {
			return
		}
		member := make(map[string]bool, len(a.Rels))
		for _, r := range a.Rels {
			member[r] = true
		}
		for _, fk := range s.FKs() {
			var add string
			switch {
			case member[fk.FromRel] && !member[fk.ToRel]:
				add = fk.ToRel
			case member[fk.ToRel] && !member[fk.FromRel]:
				add = fk.FromRel
			default:
				continue
			}
			na := Association{
				Rels:  append(append([]string(nil), a.Rels...), add),
				Joins: append(append([]schema.ForeignKey(nil), a.Joins...), fk),
			}
			grow(na)
		}
	}
	for _, r := range s.RelationNames() {
		grow(Association{Rels: []string{r}})
	}
	// Deterministic order: by size then key.
	sort.SliceStable(out, func(i, j int) bool {
		if len(out[i].Rels) != len(out[j].Rels) {
			return len(out[i].Rels) < len(out[j].Rels)
		}
		return out[i].key() < out[j].key()
	})
	return out
}

// varNamer assigns a variable to every (relation, position) of an
// association, merging variables across foreign-key joins (union-find).
type varNamer struct {
	parent map[string]string
	names  map[string]string
	prefix string
	next   int
}

func newVarNamer(prefix string) *varNamer {
	return &varNamer{parent: make(map[string]string), names: make(map[string]string), prefix: prefix}
}

func slotKey(rel string, pos int) string { return fmt.Sprintf("%s#%d", rel, pos) }

func (vn *varNamer) find(k string) string {
	p, ok := vn.parent[k]
	if !ok || p == k {
		if !ok {
			vn.parent[k] = k
		}
		return k
	}
	root := vn.find(p)
	vn.parent[k] = root
	return root
}

func (vn *varNamer) union(a, b string) {
	ra, rb := vn.find(a), vn.find(b)
	if ra != rb {
		vn.parent[ra] = rb
	}
}

func (vn *varNamer) varFor(rel string, pos int) string {
	root := vn.find(slotKey(rel, pos))
	if v, ok := vn.names[root]; ok {
		return v
	}
	v := fmt.Sprintf("%s%d", vn.prefix, vn.next)
	vn.next++
	vn.names[root] = v
	return v
}

// Generate emits candidate st tgds from the schemas and
// correspondences. The result is deduplicated by logical equality and
// deterministic for fixed inputs.
func Generate(src, tgt *schema.Schema, corrs schema.Correspondences, opts Options) (tgd.Mapping, error) {
	if err := corrs.Validate(src, tgt); err != nil {
		return nil, err
	}
	if opts.MaxAssociationSize == 0 {
		opts.MaxAssociationSize = 3
	}
	srcAssocs := Associations(src, opts.MaxAssociationSize)
	tgtAssocs := Associations(tgt, opts.MaxAssociationSize)
	corrs = corrs.Dedup()

	var out tgd.Mapping
	for _, sa := range srcAssocs {
		srcMember := make(map[string]bool, len(sa.Rels))
		for _, r := range sa.Rels {
			srcMember[r] = true
		}
		for _, ta := range tgtAssocs {
			tgtMember := make(map[string]bool, len(ta.Rels))
			for _, r := range ta.Rels {
				tgtMember[r] = true
			}
			// Correspondences linking this pair of associations. Keep
			// the first correspondence per target slot (deterministic).
			bySlot := make(map[string]schema.Correspondence)
			var slots []string
			for _, c := range corrs {
				if !srcMember[c.SourceRel] || !tgtMember[c.TargetRel] {
					continue
				}
				k := slotKey(c.TargetRel, c.TargetPos)
				if _, dup := bySlot[k]; !dup {
					bySlot[k] = c
					slots = append(slots, k)
				}
			}
			if len(bySlot) == 0 {
				continue
			}
			d, ok := buildTGD(src, tgt, sa, ta, bySlot)
			if ok {
				out = append(out, d)
			}
			_ = slots
		}
	}
	out = out.Dedup()
	if opts.MaxCandidates > 0 && len(out) > opts.MaxCandidates {
		out = out[:opts.MaxCandidates]
	}
	return out, nil
}

// buildTGD assembles one candidate from an association pair and the
// chosen per-slot correspondences. It fails (ok=false) when some
// target atom would be completely unconstrained: no corresponded
// position and no join variable shared (transitively) with a
// corresponded atom.
func buildTGD(src, tgt *schema.Schema, sa, ta Association, bySlot map[string]schema.Correspondence) (*tgd.TGD, bool) {
	// Source variables: merge across source joins.
	sv := newVarNamer("x")
	for _, fk := range sa.Joins {
		for i := range fk.FromCols {
			sv.union(slotKey(fk.FromRel, fk.FromCols[i]), slotKey(fk.ToRel, fk.ToCols[i]))
		}
	}
	body := make([]tgd.Atom, 0, len(sa.Rels))
	for _, r := range sa.Rels {
		rel := src.Relation(r)
		args := make([]tgd.Term, rel.Arity())
		for i := range args {
			args[i] = tgd.Var(sv.varFor(r, i))
		}
		body = append(body, tgd.Atom{Rel: r, Args: args})
	}

	// Target variables: merge across target joins; corresponded slots
	// take the source variable, the rest become existentials.
	tv := newVarNamer("e")
	for _, fk := range ta.Joins {
		for i := range fk.FromCols {
			tv.union(slotKey(fk.FromRel, fk.FromCols[i]), slotKey(fk.ToRel, fk.ToCols[i]))
		}
	}
	// A whole merged slot class is corresponded if any member slot
	// is; with several, the first slot in sorted order supplies it, so
	// equal inputs build equal candidates.
	slots := make([]string, 0, len(bySlot))
	for k := range bySlot {
		slots = append(slots, k)
	}
	sort.Strings(slots)
	classCorr := make(map[string]schema.Correspondence)
	for _, k := range slots {
		root := tv.find(k)
		if _, dup := classCorr[root]; !dup {
			classCorr[root] = bySlot[k]
		}
	}
	head := make([]tgd.Atom, 0, len(ta.Rels))
	atomGrounded := make(map[string]bool) // target rel -> has corresponded slot
	atomVars := make(map[string][]string) // target rel -> variable names used
	for _, r := range ta.Rels {
		rel := tgt.Relation(r)
		args := make([]tgd.Term, rel.Arity())
		var vars []string
		for i := range args {
			root := tv.find(slotKey(r, i))
			if c, ok := classCorr[root]; ok {
				args[i] = tgd.Var(sv.varFor(c.SourceRel, c.SourcePos))
				atomGrounded[r] = true
			} else {
				v := tv.varFor(r, i)
				args[i] = tgd.Var(v)
				vars = append(vars, v)
			}
		}
		atomVars[r] = vars
		head = append(head, tgd.Atom{Rel: r, Args: args})
	}
	// Connectivity check: every non-corresponded atom must share an
	// existential variable, transitively, with a corresponded atom.
	reach := make(map[string]bool)
	//lint:commutative set insertion: reach is the same set in any order
	for r, g := range atomGrounded {
		if g {
			reach[r] = true
		}
	}
	for changed := true; changed; {
		changed = false
		varOwned := make(map[string]bool)
		//lint:commutative set union: varOwned is the same set in any order
		for r := range reach {
			for _, v := range atomVars[r] {
				varOwned[v] = true
			}
		}
		for _, r := range ta.Rels {
			if reach[r] {
				continue
			}
			for _, v := range atomVars[r] {
				if varOwned[v] {
					reach[r] = true
					changed = true
					break
				}
			}
		}
	}
	for _, r := range ta.Rels {
		if !reach[r] {
			return nil, false
		}
	}
	return &tgd.TGD{Body: body, Head: head}, true
}
