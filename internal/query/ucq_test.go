package query

import (
	"testing"

	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

func mustParseUCQ(t *testing.T, src string) *UCQ {
	t.Helper()
	u, err := ParseUCQ(src)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestParseUCQ(t *testing.T) {
	u := mustParseUCQ(t, "q(x) :- a(x) ; q(x) :- b(x)")
	if len(u.Disjuncts) != 2 {
		t.Fatalf("disjuncts = %d", len(u.Disjuncts))
	}
	if u.String() != "q(x) :- a(x) ; q(x) :- b(x)" {
		t.Errorf("String = %q", u.String())
	}
	if _, err := ParseUCQ(""); err == nil {
		t.Error("empty union accepted")
	}
	if _, err := ParseUCQ("q(x) :- a(x) ; q(x,y) :- b(x,y)"); err == nil {
		t.Error("mismatched arities accepted")
	}
	if _, err := ParseUCQ("q(x) :- a(x) ; garbage"); err == nil {
		t.Error("bad disjunct accepted")
	}
}

func TestUCQEvalUnion(t *testing.T) {
	in := data.NewInstance()
	in.Add(data.NewTuple("a", "1"))
	in.Add(data.NewTuple("b", "2"))
	in.Add(data.NewTuple("b", "1")) // overlap with a's answer
	u := mustParseUCQ(t, "q(x) :- a(x) ; q(x) :- b(x)")
	got := u.Eval(in)
	if len(got) != 2 {
		t.Errorf("answers = %v, want deduped {1,2}", got)
	}
}

func TestUCQCertainAnswers(t *testing.T) {
	I := data.NewInstance()
	I.Add(data.NewTuple("projA", "ML", "Alice"))
	I.Add(data.NewTuple("projB", "DB", "Bob"))
	m := tgd.Mapping{
		tgd.MustParse("projA(p,e) -> task(p,e)"),
		tgd.MustParse("projB(p,e) -> job(p,e,X)"),
	}
	u := mustParseUCQ(t, "q(e) :- task(p, e) ; q(e) :- job(p, e, x)")
	got := CertainAnswersUCQ(u, I, m)
	// Alice via task; Bob's disjunct binds x to a null in the head? No
	// — x is not projected, so Bob is certain too.
	if len(got) != 2 {
		t.Errorf("certain answers = %v, want Alice and Bob", got)
	}
}
