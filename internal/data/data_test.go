package data

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueBasics(t *testing.T) {
	c := Const("abc")
	if c.IsNull() || c.Name() != "abc" || c.String() != "abc" {
		t.Errorf("const broken: %v", c)
	}
	n := NullValue("N7")
	if !n.IsNull() || n.Name() != "N7" || n.String() != "⊥N7" {
		t.Errorf("null broken: %v", n)
	}
	if c == n {
		t.Error("const equals null")
	}
	if Const("N7") == NullValue("N7") {
		t.Error("const and null with same name must differ")
	}
}

func TestNullFactory(t *testing.T) {
	var f NullFactory
	a, b := f.Fresh(), f.Fresh()
	if a == b {
		t.Error("factory returned duplicate nulls")
	}
	if f.Count() != 2 {
		t.Errorf("Count = %d", f.Count())
	}
}

// Reserve makes Fresh skip the null labels of an instance; Count
// counts minted nulls only.
func TestNullFactoryReserve(t *testing.T) {
	in := NewInstance()
	in.Add(Tuple{Rel: "r", Args: []Value{NullValue("N1"), Const("a")}})
	in.Add(Tuple{Rel: "r", Args: []Value{Const("N2"), NullValue("N3")}})
	var f NullFactory
	f.Reserve(in)
	var got []string
	for i := 0; i < 3; i++ {
		got = append(got, f.Fresh().Name())
	}
	if want := []string{"N2", "N4", "N5"}; !slices.Equal(got, want) {
		t.Errorf("fresh labels = %v, want %v (N1 and N3 reserved; the constant N2 is not)", got, want)
	}
	if f.Count() != 3 {
		t.Errorf("Count = %d, want 3", f.Count())
	}
}

func TestTupleKeysAndPatterns(t *testing.T) {
	t1 := Tuple{Rel: "r", Args: []Value{Const("a"), NullValue("N1")}}
	t2 := Tuple{Rel: "r", Args: []Value{Const("a"), NullValue("N2")}}
	if t1.Key() == t2.Key() {
		t.Error("distinct nulls same key")
	}
	if t1.CanonPattern() != t2.CanonPattern() {
		t.Error("canon patterns should equate renamed nulls")
	}
	// Repeated nulls are structural.
	t3 := Tuple{Rel: "r", Args: []Value{NullValue("N1"), NullValue("N1")}}
	t4 := Tuple{Rel: "r", Args: []Value{NullValue("N1"), NullValue("N2")}}
	if t3.CanonPattern() == t4.CanonPattern() {
		t.Error("canon pattern must distinguish shared from distinct nulls")
	}
	// Null/const confusion in keys.
	t5 := Tuple{Rel: "r", Args: []Value{Const("N1"), Const("N1")}}
	if t5.Key() == t3.Key() {
		t.Error("const N1 and null N1 collide in key")
	}
}

func TestTupleHelpers(t *testing.T) {
	tu := NewTuple("r", "a", "b")
	if len(tu.Args) != 2 || tu.HasNull() {
		t.Errorf("helpers broken: %v", tu)
	}
	if !tu.Equal(NewTuple("r", "a", "b")) {
		t.Error("Equal broken")
	}
	if tu.Equal(NewTuple("r", "a", "c")) || tu.Equal(NewTuple("s", "a", "b")) || tu.Equal(NewTuple("r", "a")) {
		t.Error("Equal too permissive")
	}
	withNull := Tuple{Rel: "r", Args: []Value{NullValue("X"), NullValue("X"), NullValue("Y")}}
	if got := withNull.Nulls(); len(got) != 2 || got[0] != "X" || got[1] != "Y" {
		t.Errorf("Nulls = %v", got)
	}
	if s := withNull.String(); !strings.Contains(s, "⊥X") {
		t.Errorf("String = %q", s)
	}
}

func TestInstanceSetSemantics(t *testing.T) {
	in := NewInstance()
	if !in.Add(NewTuple("r", "a")) {
		t.Error("first Add returned false")
	}
	if in.Add(NewTuple("r", "a")) {
		t.Error("duplicate Add returned true")
	}
	in.Add(NewTuple("s", "b"))
	if in.Len() != 2 {
		t.Errorf("Len = %d", in.Len())
	}
	if !in.Has(NewTuple("r", "a")) || in.Has(NewTuple("r", "z")) {
		t.Error("Has broken")
	}
	if got := in.Relations(); len(got) != 2 || got[0] != "r" {
		t.Errorf("Relations = %v", got)
	}
	if got := in.Tuples("r"); len(got) != 1 {
		t.Errorf("Tuples(r) = %v", got)
	}
	if n := in.AddAll([]Tuple{NewTuple("r", "a"), NewTuple("r", "b")}); n != 1 {
		t.Errorf("AddAll inserted %d, want 1", n)
	}
}

func TestInstanceRemove(t *testing.T) {
	in := NewInstance()
	in.Add(NewTuple("r", "a"))
	in.Add(NewTuple("r", "b"))
	if !in.Remove(NewTuple("r", "a")) {
		t.Error("Remove returned false")
	}
	if in.Remove(NewTuple("r", "a")) {
		t.Error("double Remove returned true")
	}
	if in.Len() != 1 || in.Has(NewTuple("r", "a")) {
		t.Error("Remove did not remove")
	}
	if got := in.Tuples("r"); len(got) != 1 || got[0].Args[0].Name() != "b" {
		t.Errorf("Tuples after remove = %v", got)
	}
	// Relations hides emptied relations.
	in.Remove(NewTuple("r", "b"))
	if got := in.Relations(); len(got) != 0 {
		t.Errorf("Relations after emptying = %v", got)
	}
}

func TestInstanceCloneUnionEqual(t *testing.T) {
	a := NewInstance()
	a.Add(NewTuple("r", "1"))
	b := a.Clone()
	b.Add(NewTuple("r", "2"))
	if a.Len() != 1 || b.Len() != 2 {
		t.Error("Clone aliases storage")
	}
	c := NewInstance()
	c.Add(NewTuple("r", "2"))
	c.Union(a)
	if !b.Equal(c) {
		t.Errorf("Union/Equal broken:\n%v\nvs\n%v", b, c)
	}
	if a.Equal(b) {
		t.Error("Equal false positive")
	}
}

func TestInstanceGround(t *testing.T) {
	in := NewInstance()
	n1, n2 := NullValue("N1"), NullValue("N2")
	in.Add(Tuple{Rel: "t", Args: []Value{Const("a"), n1}})
	in.Add(Tuple{Rel: "u", Args: []Value{n1, n2}})
	g := in.Ground("g")
	if g.Len() != 2 {
		t.Fatalf("ground len = %d", g.Len())
	}
	for _, tu := range g.All() {
		if tu.HasNull() {
			t.Fatalf("ground left null: %v", tu)
		}
	}
	// Same null maps to the same constant across tuples.
	var tVal, uVal string
	for _, tu := range g.All() {
		switch tu.Rel {
		case "t":
			tVal = tu.Args[1].Name()
		case "u":
			uVal = tu.Args[0].Name()
		}
	}
	if tVal != uVal {
		t.Errorf("null N1 grounded inconsistently: %q vs %q", tVal, uVal)
	}
}

func TestMatchConstPositions(t *testing.T) {
	withNull := Tuple{Rel: "r", Args: []Value{Const("a"), NullValue("N")}}
	if !MatchConstPositions(withNull, NewTuple("r", "a", "z")) {
		t.Error("null position should match anything")
	}
	if MatchConstPositions(withNull, NewTuple("r", "b", "z")) {
		t.Error("constant mismatch accepted")
	}
	if MatchConstPositions(withNull, NewTuple("s", "a", "z")) {
		t.Error("relation mismatch accepted")
	}
	if MatchConstPositions(withNull, NewTuple("r", "a")) {
		t.Error("arity mismatch accepted")
	}
}

// Property: Add then Has always true; Len equals number of distinct keys.
func TestInstanceProperties(t *testing.T) {
	f := func(rels []uint8, vals []string) bool {
		in := NewInstance()
		seen := make(map[string]bool)
		for i := range rels {
			rel := string(rune('a' + rels[i]%3))
			v := ""
			if len(vals) > 0 {
				v = vals[i%len(vals)]
			}
			tu := NewTuple(rel, v)
			in.Add(tu)
			seen[tu.Key()] = true
			if !in.Has(tu) {
				return false
			}
		}
		return in.Len() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Ground is idempotent on ground instances and never leaves
// nulls.
func TestGroundProperties(t *testing.T) {
	f := func(names []string, nullAt []bool) bool {
		in := NewInstance()
		for i, n := range names {
			var v Value
			if i < len(nullAt) && nullAt[i] {
				v = NullValue("N" + n)
			} else {
				v = Const(n)
			}
			in.Add(Tuple{Rel: "r", Args: []Value{v}})
		}
		g := in.Ground("x")
		for _, tu := range g.All() {
			if tu.HasNull() {
				return false
			}
		}
		return g.Ground("y").Equal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Tuple keys are injective: delimiters inside names are escaped, so
// tuples that differ only in how characters split across arguments
// (or across the relation name) stay distinct facts.
func TestTupleKeyInjective(t *testing.T) {
	groups := [][]Tuple{
		{NewTuple("R", "x,y", "z"), NewTuple("R", "x", "y,z")},
		{NewTuple("R", "a)", "b"), NewTuple("R", "a", ")b")},
		{NewTuple("R", `a\`, "b"), NewTuple("R", `a\,b`), NewTuple("R", `a`, `\b`)},
		{{Rel: "R", Args: []Value{NullValue("a")}}, NewTuple("R", "\x00a")},
		{NewTuple("R(x", "y"), NewTuple("R", "x(y")},
		{{Rel: "R"}, NewTuple("R", "")},
	}
	for _, g := range groups {
		seen := map[string]Tuple{}
		for _, tu := range g {
			if prev, ok := seen[tu.Key()]; ok {
				t.Errorf("%v and %v share key %q", prev, tu, tu.Key())
			}
			seen[tu.Key()] = tu
		}
	}
	// Keys of names without delimiters are unchanged.
	if got := (Tuple{Rel: "task", Args: []Value{Const("ML"), NullValue("N1")}}).Key(); got != "task(ML,\x00N1)" {
		t.Errorf("plain key = %q", got)
	}
	if NewTuple("R", "x,y", "z").CanonPattern() == NewTuple("R", "x", "y,z").CanonPattern() {
		t.Error("canon patterns of comma-split tuples collide")
	}
	if NewTuple("R", "*0").CanonPattern() == (Tuple{Rel: "R", Args: []Value{NullValue("a")}}).CanonPattern() {
		t.Error("constant '*0' and a null share a canon pattern")
	}
}

// Instance membership follows exact tuple identity for values holding
// commas: both comma-split tuples are kept, and removing one leaves
// the other.
func TestInstanceCommaValues(t *testing.T) {
	a, b := NewTuple("R", "x,y", "z"), NewTuple("R", "x", "y,z")
	in := NewInstance()
	if !in.Add(a) || !in.Add(b) || in.Len() != 2 {
		t.Fatalf("instance holds %d tuples after adding two distinct facts", in.Len())
	}
	if !in.Remove(a) {
		t.Fatal("Remove(a) missed")
	}
	if in.Has(a) || !in.Has(b) || in.Len() != 1 {
		t.Fatal("Remove(a) removed the wrong fact")
	}
	if ts := in.Tuples("R"); len(ts) != 1 || !ts[0].Equal(b) {
		t.Fatalf("relation R holds %v, want only %v", ts, b)
	}
}
