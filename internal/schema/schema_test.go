package schema

import (
	"strings"
	"testing"
)

func TestRelationBasics(t *testing.T) {
	r := NewRelation("proj", "name", "emp", "company")
	if r.Arity() != 3 {
		t.Errorf("arity = %d, want 3", r.Arity())
	}
	if got := r.String(); got != "proj(name, emp, company)" {
		t.Errorf("String() = %q", got)
	}
}

func TestRelationValidate(t *testing.T) {
	cases := []struct {
		name string
		rel  *Relation
		ok   bool
	}{
		{"valid", NewRelation("r", "a", "b"), true},
		{"empty name", NewRelation("", "a"), false},
		{"no attrs", NewRelation("r"), false},
		{"dup attrs", NewRelation("r", "a", "a"), false},
		{"empty attr", NewRelation("r", ""), false},
		{"bad key", &Relation{Name: "r", Attrs: []string{"a"}, Key: []int{5}}, false},
	}
	for _, c := range cases {
		if err := c.rel.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestSchemaAddAndLookup(t *testing.T) {
	s := New("src")
	s.MustAddRelation(NewRelation("a", "x"))
	s.MustAddRelation(NewRelation("b", "y", "z"))
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Relation("a") == nil || s.Relation("c") != nil {
		t.Error("lookup broken")
	}
	if got := s.RelationNames(); got[0] != "a" || got[1] != "b" {
		t.Errorf("order broken: %v", got)
	}
	if err := s.AddRelation(NewRelation("a", "q")); err == nil {
		t.Error("duplicate relation accepted")
	}
	if !strings.Contains(s.String(), "a(x)") {
		t.Errorf("String missing relation: %s", s)
	}
}

func TestSchemaFKs(t *testing.T) {
	s := New("t")
	s.MustAddRelation(NewRelation("task", "name", "oid"))
	s.MustAddRelation(NewRelation("org", "oid", "cname"))
	fk := ForeignKey{FromRel: "task", FromCols: []int{1}, ToRel: "org", ToCols: []int{0}}
	if err := s.AddFK(fk); err != nil {
		t.Fatal(err)
	}
	if n := len(s.FKs()); n != 1 {
		t.Errorf("FKs = %d", n)
	}

	bad := []ForeignKey{
		{FromRel: "nope", FromCols: []int{0}, ToRel: "org", ToCols: []int{0}},
		{FromRel: "task", FromCols: []int{0}, ToRel: "nope", ToCols: []int{0}},
		{FromRel: "task", FromCols: []int{0, 1}, ToRel: "org", ToCols: []int{0}},
		{FromRel: "task", FromCols: []int{9}, ToRel: "org", ToCols: []int{0}},
		{FromRel: "task", FromCols: []int{0}, ToRel: "org", ToCols: []int{9}},
		{FromRel: "task", FromCols: nil, ToRel: "org", ToCols: nil},
	}
	for i, fk := range bad {
		if err := s.AddFK(fk); err == nil {
			t.Errorf("bad fk %d accepted: %v", i, fk)
		}
	}
}

func TestCorrespondences(t *testing.T) {
	src := New("s")
	src.MustAddRelation(NewRelation("p", "a", "b"))
	src.MustAddRelation(NewRelation("q", "c"))
	tgt := New("t")
	tgt.MustAddRelation(NewRelation("u", "x"))
	tgt.MustAddRelation(NewRelation("v", "y"))

	cs := Correspondences{
		{SourceRel: "p", SourcePos: 0, TargetRel: "u", TargetPos: 0},
		{SourceRel: "p", SourcePos: 1, TargetRel: "v", TargetPos: 0},
		{SourceRel: "q", SourcePos: 0, TargetRel: "v", TargetPos: 0},
		{SourceRel: "p", SourcePos: 0, TargetRel: "u", TargetPos: 0}, // dup
	}
	if err := cs.Validate(src, tgt); err != nil {
		t.Fatal(err)
	}
	if got := cs.Dedup(); len(got) != 3 {
		t.Errorf("Dedup len = %d, want 3", len(got))
	}

	bad := Correspondences{{SourceRel: "p", SourcePos: 7, TargetRel: "u", TargetPos: 0}}
	if err := bad.Validate(src, tgt); err == nil {
		t.Error("out-of-range source position accepted")
	}
	bad = Correspondences{{SourceRel: "p", SourcePos: 0, TargetRel: "u", TargetPos: 7}}
	if err := bad.Validate(src, tgt); err == nil {
		t.Error("out-of-range target position accepted")
	}
	bad = Correspondences{{SourceRel: "zz", SourcePos: 0, TargetRel: "u", TargetPos: 0}}
	if err := bad.Validate(src, tgt); err == nil {
		t.Error("unknown source relation accepted")
	}
	bad = Correspondences{{SourceRel: "p", SourcePos: 0, TargetRel: "zz", TargetPos: 0}}
	if err := bad.Validate(src, tgt); err == nil {
		t.Error("unknown target relation accepted")
	}
}
