// Package schema models relational schemas for schema-mapping problems:
// relations with named attributes, primary keys, foreign keys, and
// inter-schema attribute correspondences (the metadata evidence used by
// Clio-style candidate generation).
package schema

import (
	"fmt"
	"strings"
)

// Relation is a relation symbol with a fixed attribute list.
type Relation struct {
	Name  string
	Attrs []string
	// Key holds the positions (0-based) forming the primary key.
	// It may be empty when no key is declared.
	Key []int
}

// NewRelation builds a relation and validates attribute names.
func NewRelation(name string, attrs ...string) *Relation {
	return &Relation{Name: name, Attrs: attrs}
}

// Arity returns the number of attributes of r.
func (r *Relation) Arity() int { return len(r.Attrs) }

// String renders the relation as Name(attr1, attr2, ...).
func (r *Relation) String() string {
	return fmt.Sprintf("%s(%s)", r.Name, strings.Join(r.Attrs, ", "))
}

// Validate checks structural well-formedness of the relation.
func (r *Relation) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("schema: relation with empty name")
	}
	if len(r.Attrs) == 0 {
		return fmt.Errorf("schema: relation %s has no attributes", r.Name)
	}
	seen := make(map[string]bool, len(r.Attrs))
	for _, a := range r.Attrs {
		if a == "" {
			return fmt.Errorf("schema: relation %s has an empty attribute name", r.Name)
		}
		if seen[a] {
			return fmt.Errorf("schema: relation %s has duplicate attribute %q", r.Name, a)
		}
		seen[a] = true
	}
	for _, k := range r.Key {
		if k < 0 || k >= len(r.Attrs) {
			return fmt.Errorf("schema: relation %s key position %d out of range", r.Name, k)
		}
	}
	return nil
}

// ForeignKey declares that FromCols of FromRel reference ToCols of ToRel.
// Column lists are parallel and must have equal length.
type ForeignKey struct {
	FromRel  string
	FromCols []int
	ToRel    string
	ToCols   []int
}

// String renders the foreign key in a compact arrow form.
func (fk ForeignKey) String() string {
	return fmt.Sprintf("%s%v -> %s%v", fk.FromRel, fk.FromCols, fk.ToRel, fk.ToCols)
}

// Schema is an ordered collection of relations plus foreign keys.
type Schema struct {
	Name  string
	rels  map[string]*Relation
	order []string
	fks   []ForeignKey
}

// New creates an empty schema with the given name.
func New(name string) *Schema {
	return &Schema{Name: name, rels: make(map[string]*Relation)}
}

// AddRelation registers a relation; relation names must be unique.
func (s *Schema) AddRelation(r *Relation) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if _, dup := s.rels[r.Name]; dup {
		return fmt.Errorf("schema %s: duplicate relation %s", s.Name, r.Name)
	}
	s.rels[r.Name] = r
	s.order = append(s.order, r.Name)
	return nil
}

// MustAddRelation is AddRelation but panics on error; for tests and
// generators building schemas programmatically.
func (s *Schema) MustAddRelation(r *Relation) *Relation {
	if err := s.AddRelation(r); err != nil {
		panic(err)
	}
	return r
}

// Relation returns the named relation or nil.
func (s *Schema) Relation(name string) *Relation { return s.rels[name] }

// Relations returns all relations in insertion order.
func (s *Schema) Relations() []*Relation {
	out := make([]*Relation, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.rels[n])
	}
	return out
}

// RelationNames returns the relation names in insertion order.
func (s *Schema) RelationNames() []string {
	return append([]string(nil), s.order...)
}

// Len returns the number of relations.
func (s *Schema) Len() int { return len(s.order) }

// AddFK registers a foreign key after validating endpoint relations,
// column positions and length agreement.
func (s *Schema) AddFK(fk ForeignKey) error {
	from := s.Relation(fk.FromRel)
	to := s.Relation(fk.ToRel)
	if from == nil {
		return fmt.Errorf("schema %s: fk from unknown relation %s", s.Name, fk.FromRel)
	}
	if to == nil {
		return fmt.Errorf("schema %s: fk to unknown relation %s", s.Name, fk.ToRel)
	}
	if len(fk.FromCols) == 0 || len(fk.FromCols) != len(fk.ToCols) {
		return fmt.Errorf("schema %s: fk %v has mismatched column lists", s.Name, fk)
	}
	for _, c := range fk.FromCols {
		if c < 0 || c >= from.Arity() {
			return fmt.Errorf("schema %s: fk %v column %d out of range for %s", s.Name, fk, c, fk.FromRel)
		}
	}
	for _, c := range fk.ToCols {
		if c < 0 || c >= to.Arity() {
			return fmt.Errorf("schema %s: fk %v column %d out of range for %s", s.Name, fk, c, fk.ToRel)
		}
	}
	s.fks = append(s.fks, fk)
	return nil
}

// MustAddFK is AddFK but panics on error.
func (s *Schema) MustAddFK(fk ForeignKey) {
	if err := s.AddFK(fk); err != nil {
		panic(err)
	}
}

// FKs returns all foreign keys.
func (s *Schema) FKs() []ForeignKey { return append([]ForeignKey(nil), s.fks...) }

// String renders the schema, one relation per line, then foreign keys.
func (s *Schema) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schema %s:\n", s.Name)
	for _, r := range s.Relations() {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	for _, fk := range s.fks {
		fmt.Fprintf(&b, "  fk %s\n", fk)
	}
	return b.String()
}

// Correspondence links one source attribute to one target attribute.
// It is the unit of metadata evidence consumed by candidate generation.
type Correspondence struct {
	SourceRel string
	SourcePos int
	TargetRel string
	TargetPos int
}

// String renders the correspondence as src.rel[i] ~ tgt.rel[j].
func (c Correspondence) String() string {
	return fmt.Sprintf("%s[%d] ~ %s[%d]", c.SourceRel, c.SourcePos, c.TargetRel, c.TargetPos)
}

// Correspondences is a set of attribute correspondences with helpers
// used by candidate generation.
type Correspondences []Correspondence

// Dedup returns the correspondences with exact duplicates removed,
// preserving first-occurrence order.
func (cs Correspondences) Dedup() Correspondences {
	seen := make(map[Correspondence]bool, len(cs))
	out := make(Correspondences, 0, len(cs))
	for _, c := range cs {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// Validate checks every correspondence against the two schemas.
func (cs Correspondences) Validate(src, tgt *Schema) error {
	for _, c := range cs {
		sr := src.Relation(c.SourceRel)
		if sr == nil {
			return fmt.Errorf("schema: correspondence %s: unknown source relation", c)
		}
		tr := tgt.Relation(c.TargetRel)
		if tr == nil {
			return fmt.Errorf("schema: correspondence %s: unknown target relation", c)
		}
		if c.SourcePos < 0 || c.SourcePos >= sr.Arity() {
			return fmt.Errorf("schema: correspondence %s: source position out of range", c)
		}
		if c.TargetPos < 0 || c.TargetPos >= tr.Arity() {
			return fmt.Errorf("schema: correspondence %s: target position out of range", c)
		}
	}
	return nil
}
