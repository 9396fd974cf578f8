package tgd

import (
	"strings"
	"testing"

	"schemamap/internal/schema"
)

func TestParseAndPrint(t *testing.T) {
	d := MustParse("proj(p, e, c) -> task(p, e, O) & org(O, c)")
	if len(d.Body) != 1 || len(d.Head) != 2 {
		t.Fatalf("shape wrong: %v", d)
	}
	if got := d.String(); got != "proj(p, e, c) -> task(p, e, O) & org(O, c)" {
		t.Errorf("String = %q", got)
	}
	// Round trip.
	d2 := MustParse(d.String())
	if !d.Equal(d2) {
		t.Error("round trip broke equality")
	}
}

func TestParseCommaConjunction(t *testing.T) {
	d := MustParse("a(x), b(x) -> c(x)")
	if len(d.Body) != 2 {
		t.Errorf("comma conjunction not parsed: %v", d)
	}
}

func TestParseConstants(t *testing.T) {
	d := MustParse("r(x, 'IBM') -> s(x, 'SAP')")
	if !d.Body[0].Args[1].IsConst || d.Body[0].Args[1].Name != "IBM" {
		t.Errorf("constant lost: %v", d.Body[0])
	}
	if got := d.String(); !strings.Contains(got, "'IBM'") {
		t.Errorf("constant not quoted: %q", got)
	}
	d2 := MustParse(d.String())
	if !d.Equal(d2) {
		t.Error("constants broke round trip")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"r(x)",              // no arrow
		"r(x) ->",           // no head
		"-> s(x)",           // no body
		"r(x -> s(x)",       // unbalanced
		"r() -> s(x)",       // empty args
		"r(x) -> s(x) junk", // trailing
		"r('unterminated) -> s(x)",
		"r(x) - > s(x)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseMapping(t *testing.T) {
	m, err := ParseMapping(`
		# gold mapping
		a(x) -> b(x)

		c(x,y) -> d(y,x)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 {
		t.Fatalf("len = %d", len(m))
	}
	if _, err := ParseMapping("a(x) -> b(x)\ngarbage"); err == nil {
		t.Error("expected error")
	}
}

func TestVarsAndExistentials(t *testing.T) {
	d := MustParse("r(x,y) -> s(x,E) & t(E,F)")
	if got := d.BodyVars(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("BodyVars = %v", got)
	}
	if got := d.HeadVars(); len(got) != 3 {
		t.Errorf("HeadVars = %v", got)
	}
	if got := d.ExistVars(); len(got) != 2 || got[0] != "E" || got[1] != "F" {
		t.Errorf("ExistVars = %v", got)
	}
	if got := MustParse("r(x,y) -> s(y,x)").ExistVars(); len(got) != 0 {
		t.Errorf("ExistVars of a full tgd = %v", got)
	}
}

func TestSizeMeasure(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		{"proj(p,e,c) -> task(p,e,O)", 3},            // 2 atoms + 1 exist
		{"proj(p,e,c) -> task(p,e,O) & org(O,c)", 4}, // 3 atoms + 1 exist
		{"r(x) -> s(x)", 2},                          // full
		{"r(x) -> s(E,F)", 4},                        // 2 atoms + 2 exist
		{"a(x) & b(x) -> c(x)", 3},                   // 3 atoms
	}
	for _, c := range cases {
		if got := MustParse(c.src).Size(); got != c.want {
			t.Errorf("Size(%q) = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestCanonicalEquality(t *testing.T) {
	a := MustParse("proj(p,e,c) -> task(p,e,O)")
	b := MustParse("proj(X,Y,Z) -> task(X,Y,W)")
	if !a.Equal(b) {
		t.Error("variable renaming broke equality")
	}
	c := MustParse("proj(p,e,c) -> task(e,p,O)")
	if a.Equal(c) {
		t.Error("argument swap should not be equal")
	}
	// Head atom order must not matter (sorted canonicalisation).
	d1 := MustParse("r(x,y) -> s(x,E) & t(E,y)")
	d2 := MustParse("r(x,y) -> t(E,y) & s(x,E)")
	if !d1.Equal(d2) {
		t.Error("atom order broke equality")
	}
}

func TestMappingHelpers(t *testing.T) {
	m := Mapping{
		MustParse("a(x) -> b(x)"),
		MustParse("a(y) -> b(y)"), // duplicate up to renaming
		MustParse("c(x) -> d(x,E)"),
	}
	if got := m.Size(); got != 2+2+3 {
		t.Errorf("Size = %d", got)
	}
	dd := m.Dedup()
	if len(dd) != 2 {
		t.Errorf("Dedup len = %d", len(dd))
	}
	if !m.Contains(MustParse("a(q) -> b(q)")) {
		t.Error("Contains broken")
	}
	if m.Contains(MustParse("a(q) -> d(q,E)")) {
		t.Error("Contains false positive")
	}
	if got := m.Strings(); len(got) != 3 {
		t.Errorf("Strings = %v", got)
	}
	if got := m.CanonicalSet(); len(got) != 2 {
		t.Errorf("CanonicalSet = %v", got)
	}
}

func TestValidate(t *testing.T) {
	src := schema.New("s")
	src.MustAddRelation(schema.NewRelation("r", "a", "b"))
	tgt := schema.New("t")
	tgt.MustAddRelation(schema.NewRelation("s", "x"))

	if err := MustParse("r(x,y) -> s(x)").Validate(src, tgt); err != nil {
		t.Errorf("valid tgd rejected: %v", err)
	}
	bad := []string{
		"q(x) -> s(x)",     // unknown body relation
		"r(x,y) -> q(x)",   // unknown head relation
		"r(x) -> s(x)",     // body arity
		"r(x,y) -> s(x,y)", // head arity
	}
	for _, s := range bad {
		if err := MustParse(s).Validate(src, tgt); err == nil {
			t.Errorf("Validate(%q) accepted", s)
		}
	}
	m := Mapping{MustParse("r(x,y) -> s(x)"), MustParse("q(x) -> s(x)")}
	if err := m.Validate(src, tgt); err == nil {
		t.Error("mapping validation missed bad tgd")
	}
}

func TestAtomHelpers(t *testing.T) {
	a := Atom{Rel: "r", Args: []Term{Var("x"), Const("k"), Var("x")}}
	if got := a.Vars(); len(got) != 1 || got[0] != "x" {
		t.Errorf("Vars = %v", got)
	}
	if got := a.String(); got != "r(x, 'k', x)" {
		t.Errorf("String = %q", got)
	}
}
