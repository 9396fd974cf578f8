package data

import "testing"

func nullT(rel string, args ...Value) Tuple { return Tuple{Rel: rel, Args: args} }

func TestTupleEmbeds(t *testing.T) {
	J := NewInstance()
	J.Add(NewTuple("task", "ML", "Alice", "111"))

	if !TupleEmbeds(nullT("task", Const("ML"), Const("Alice"), NullValue("N")), J) {
		t.Error("null position should embed")
	}
	if TupleEmbeds(nullT("task", Const("BigData"), Const("Bob"), NullValue("N")), J) {
		t.Error("mismatched constants should not embed")
	}
	if TupleEmbeds(NewTuple("org", "1", "2"), J) {
		t.Error("missing relation should not embed")
	}
	if !TupleEmbeds(NewTuple("task", "ML", "Alice", "111"), J) {
		t.Error("exact tuple should embed")
	}
}

func TestTupleEmbedsRepeatedNullConsistency(t *testing.T) {
	J := NewInstance()
	J.Add(NewTuple("s", "1", "2"))
	n := NullValue("N")
	if TupleEmbeds(nullT("s", n, n), J) {
		t.Error("repeated null mapped to two values")
	}
	J.Add(NewTuple("s", "3", "3"))
	if !TupleEmbeds(nullT("s", n, n), J) {
		t.Error("repeated null should embed into s(3,3)")
	}
}

func TestBlockEmbedsJoinConsistency(t *testing.T) {
	// Block task(ML,Alice,N), org(N,SAP): embeds iff J joins them.
	n := NullValue("N")
	block := []Tuple{
		nullT("task", Const("ML"), Const("Alice"), n),
		nullT("org", n, Const("SAP")),
	}
	J := NewInstance()
	J.Add(NewTuple("task", "ML", "Alice", "111"))
	J.Add(NewTuple("org", "222", "SAP")) // wrong join value
	if NewSearcher(IndexTuples(J.All())).BlockEmbeds(block) {
		t.Error("inconsistent join embedded")
	}
	J.Add(NewTuple("org", "111", "SAP"))
	if !NewSearcher(IndexTuples(J.All())).BlockEmbeds(block) {
		t.Error("consistent join should embed")
	}
}

func TestEnumeratePartialHomsCountsAndShapes(t *testing.T) {
	n := NullValue("N")
	block := []Tuple{
		nullT("task", Const("ML"), Const("Alice"), n),
		nullT("org", n, Const("SAP")),
	}
	J := NewInstance()
	J.Add(NewTuple("task", "ML", "Alice", "111"))
	J.Add(NewTuple("org", "111", "SAP"))

	total, full := 0, 0
	EnumeratePartialHoms(block, J, 0, func(m BlockMatch) bool {
		total++
		if m.Mapped[0] && m.Mapped[1] {
			full++
			// Null image must be consistent.
			if n0, n1 := m.Image[0].Args[2], m.Image[1].Args[0]; n0 != Const("111") || n1 != n0 {
				t.Errorf("null images = %v, %v", n0, n1)
			}
			// Images must be in the original block order.
			if m.Image[0].Rel != "task" || m.Image[1].Rel != "org" {
				t.Errorf("image order broken: %v", m.Image)
			}
		}
		return true
	})
	// Assignments: both mapped; only task; only org; neither = 4.
	if total != 4 {
		t.Errorf("total assignments = %d, want 4", total)
	}
	if full != 1 {
		t.Errorf("full homomorphisms = %d, want 1", full)
	}
}

func TestEnumeratePartialHomsLimit(t *testing.T) {
	J := NewInstance()
	for i := 0; i < 50; i++ {
		J.Add(NewTuple("r", string(rune('a'+i%26)), string(rune('a'+i/26))))
	}
	block := []Tuple{nullT("r", NullValue("X"), NullValue("Y"))}
	count := 0
	EnumeratePartialHoms(block, J, 10, func(m BlockMatch) bool {
		count++
		return true
	})
	if count > 10 {
		t.Errorf("limit ignored: %d emissions", count)
	}
}

func TestEnumeratePartialHomsEarlyStop(t *testing.T) {
	J := NewInstance()
	J.Add(NewTuple("r", "a"))
	J.Add(NewTuple("r", "b"))
	block := []Tuple{nullT("r", NullValue("X"))}
	count := 0
	EnumeratePartialHoms(block, J, 0, func(m BlockMatch) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop ignored: %d emissions", count)
	}
}

func TestEnumerateOrdersConstantRichFirst(t *testing.T) {
	// The all-null link tuple must not blow up: with the constant-rich
	// tuples processed first, its candidates are pinned by bound nulls.
	k1, k2 := NullValue("K1"), NullValue("K2")
	block := []Tuple{
		nullT("m", k1, k2), // all nulls — would branch wide if first
		nullT("t1", k1, Const("x")),
		nullT("t2", k2, Const("y")),
	}
	J := NewInstance()
	J.Add(NewTuple("t1", "101", "x"))
	J.Add(NewTuple("t2", "202", "y"))
	for i := 0; i < 30; i++ {
		J.Add(NewTuple("m", "other"+string(rune('a'+i)), "z"))
	}
	J.Add(NewTuple("m", "101", "202"))
	if !NewSearcher(IndexTuples(J.All())).BlockEmbeds(block) {
		t.Error("N-to-M block should embed")
	}
}
