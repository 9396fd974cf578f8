package cover

import (
	"math"
	"testing"

	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// appendixExample builds the running example reconstructed from the
// paper's appendix §I:
//
//	source  proj(name, emp, company)
//	target  task(name, emp, oid), org(oid, company)
//	I = { proj(BigData,Bob,IBM), proj(ML,Alice,SAP) }
//	J = { task(ML,Alice,111), org(111,SAP),
//	      task(Search,Carol,222), org(222,Google) }   (4 tuples)
//	θ1: proj(p,e,c) -> task(p,e,O)              size 3
//	θ3: proj(p,e,c) -> task(p,e,O) & org(O,c)   size 4
func appendixExample() (I, J *data.Instance, th1, th3 *tgd.TGD) {
	I = data.NewInstance()
	I.Add(data.NewTuple("proj", "BigData", "Bob", "IBM"))
	I.Add(data.NewTuple("proj", "ML", "Alice", "SAP"))
	J = data.NewInstance()
	J.Add(data.NewTuple("task", "ML", "Alice", "111"))
	J.Add(data.NewTuple("org", "111", "SAP"))
	J.Add(data.NewTuple("task", "Search", "Carol", "222"))
	J.Add(data.NewTuple("org", "222", "Google"))
	th1 = tgd.MustParse("proj(p,e,c) -> task(p,e,O)")
	th3 = tgd.MustParse("proj(p,e,c) -> task(p,e,O) & org(O,c)")
	return
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAppendixSizes(t *testing.T) {
	_, _, th1, th3 := appendixExample()
	if got := th1.Size(); got != 3 {
		t.Errorf("size(θ1) = %d, want 3", got)
	}
	if got := th3.Size(); got != 4 {
		t.Errorf("size(θ3) = %d, want 4", got)
	}
}

func TestAppendixTheta1(t *testing.T) {
	I, J, th1, _ := appendixExample()
	an := AnalyzeOne(0, th1, I, J, DefaultOptions())

	// covers: task(ML,Alice,111) to degree 2/3, everything else 0.
	jidx := IndexJ(J)
	mlTask := jidx.IndexOf(data.NewTuple("task", "ML", "Alice", "111"))
	if !approx(an.CoversOf(mlTask), 2.0/3.0) {
		t.Errorf("covers(θ1, task(ML,Alice,111)) = %v, want 2/3", an.CoversOf(mlTask))
	}
	if an.NumCovered() != 1 {
		t.Errorf("θ1 should cover exactly one J tuple, covers = %v", an.Pairs)
	}
	// creates: 1 for task(BigData,Bob,⊥), 0 for the ML tuple.
	if !approx(an.Errors, 1) {
		t.Errorf("errors(θ1) = %v, want 1", an.Errors)
	}
	if an.KTuples != 2 || an.Firings != 2 {
		t.Errorf("θ1 chase: %d tuples / %d firings, want 2/2", an.KTuples, an.Firings)
	}
}

func TestAppendixTheta3(t *testing.T) {
	I, J, _, th3 := appendixExample()
	an := AnalyzeOne(0, th3, I, J, DefaultOptions())

	jidx := IndexJ(J)
	mlTask := jidx.IndexOf(data.NewTuple("task", "ML", "Alice", "111"))
	sapOrg := jidx.IndexOf(data.NewTuple("org", "111", "SAP"))
	// Corroborated nulls: full coverage 3/3 and 2/2.
	if !approx(an.CoversOf(mlTask), 1) {
		t.Errorf("covers(θ3, task(ML,Alice,111)) = %v, want 1", an.CoversOf(mlTask))
	}
	if !approx(an.CoversOf(sapOrg), 1) {
		t.Errorf("covers(θ3, org(111,SAP)) = %v, want 1", an.CoversOf(sapOrg))
	}
	if an.NumCovered() != 2 {
		t.Errorf("θ3 should cover exactly two J tuples, covers = %v", an.Pairs)
	}
	// creates: 1 for task(BigData,Bob,⊥) and org(⊥,IBM).
	if !approx(an.Errors, 2) {
		t.Errorf("errors(θ3) = %v, want 2", an.Errors)
	}
	if an.KTuples != 4 || an.Firings != 2 {
		t.Errorf("θ3 chase: %d tuples / %d firings, want 4/2", an.KTuples, an.Firings)
	}
}

// Without corroboration (the E8 ablation) θ1's null counts as covered,
// erasing the collective advantage of θ3.
func TestNaiveCoversAblation(t *testing.T) {
	I, J, th1, _ := appendixExample()
	opts := DefaultOptions()
	opts.Corroboration = false
	an := AnalyzeOne(0, th1, I, J, opts)
	jidx := IndexJ(J)
	mlTask := jidx.IndexOf(data.NewTuple("task", "ML", "Alice", "111"))
	if !approx(an.CoversOf(mlTask), 1) {
		t.Errorf("naive covers(θ1, task) = %v, want 1", an.CoversOf(mlTask))
	}
}

func TestCertainUnexplained(t *testing.T) {
	I, J, th1, th3 := appendixExample()
	jidx := IndexJ(J)
	analyses := Analyze(I, jidx, tgd.Mapping{th1, th3}, DefaultOptions())
	got := CertainUnexplained(jidx, analyses)
	// task(Search,Carol,222) and org(222,Google) are certain
	// unexplained: no candidate covers them.
	if len(got) != 2 {
		t.Fatalf("certain unexplained = %v, want 2 tuples", got)
	}
	for _, j := range got {
		tu := jidx.Tuples[j]
		if tu.Args[0].Name() == "ML" || tu.Args[0].Name() == "111" {
			t.Errorf("tuple %s misclassified as certain unexplained", tu)
		}
	}
}

func TestFullTGDsCollapseToEq4(t *testing.T) {
	// On full tgds, covers and creates must be binary: covers=1 iff
	// the chased tuple is in J, creates=1 iff it is not.
	I := data.NewInstance()
	I.Add(data.NewTuple("r", "a", "b"))
	I.Add(data.NewTuple("r", "c", "d"))
	J := data.NewInstance()
	J.Add(data.NewTuple("s", "a", "b"))
	d := tgd.MustParse("r(x,y) -> s(x,y)")
	an := AnalyzeOne(0, d, I, J, DefaultOptions())
	jidx := IndexJ(J)
	if !approx(an.CoversOf(jidx.IndexOf(data.NewTuple("s", "a", "b"))), 1) {
		t.Errorf("full tgd covers = %v, want exactly 1", an.Pairs)
	}
	if !approx(an.Errors, 1) {
		t.Errorf("full tgd errors = %v, want 1 (s(c,d) ∉ J)", an.Errors)
	}
}

func TestRepeatedNullInOneTuple(t *testing.T) {
	// A tgd head using the same existential twice: r(x) -> s(E,E).
	// J contains s(1,2) (inconsistent images) and s(3,3) (consistent).
	I := data.NewInstance()
	I.Add(data.NewTuple("r", "a"))
	J := data.NewInstance()
	J.Add(data.NewTuple("s", "1", "2"))
	J.Add(data.NewTuple("s", "3", "3"))
	d := tgd.MustParse("r(x) -> s(E,E)")
	an := AnalyzeOne(0, d, I, J, DefaultOptions())
	// The block is a single tuple, so the nulls are uncorroborated and
	// coverage is 0 everywhere; but creates must be 0 because s(E,E)
	// embeds into s(3,3) — and not via s(1,2).
	if an.NumCovered() != 0 {
		t.Errorf("covers = %v, want none (uncorroborated)", an.Pairs)
	}
	if !approx(an.Errors, 0) {
		t.Errorf("errors = %v, want 0 (embeds into s(3,3))", an.Errors)
	}
}

func TestHomLimitStillFindsEasyMatches(t *testing.T) {
	I, J, _, th3 := appendixExample()
	opts := DefaultOptions()
	opts.HomLimit = 8
	an := AnalyzeOne(0, th3, I, J, opts)
	if an.NumCovered() == 0 {
		t.Error("tiny hom limit should still find the direct matches")
	}
}

// IndexOf resolves comma-split tuples to their own slots, in an
// index and in a view, and removing one never tombstones the other.
func TestJIndexIndexOfCommaValues(t *testing.T) {
	a, b := data.NewTuple("R", "x,y", "z"), data.NewTuple("R", "x", "y,z")
	J := data.NewInstance()
	J.Add(a)
	J.Add(b)
	ix := IndexJ(J)
	for name, ix := range map[string]*JIndex{"IndexJ": ix, "ViewJ": ViewJ([]data.Tuple{a, b})} {
		if ix.Len() != 2 || ix.IndexOf(a) != 0 || ix.IndexOf(b) != 1 {
			t.Fatalf("%s: Len %d, IndexOf = %d, %d; want 2, 0, 1", name, ix.Len(), ix.IndexOf(a), ix.IndexOf(b))
		}
	}
	ix.Remove([]int32{0})
	if ix.IndexOf(a) != -1 || ix.IndexOf(b) != 1 || ix.Live(0) || !ix.Live(1) || ix.NumLive() != 1 {
		t.Fatalf("removing %v disturbed %v", a, b)
	}
}

// org(O,C) below shares only O with task, so in the matches that skip
// task it is an inert leaf: no constant, no null bound. Under
// corroboration it scores 0 there and the search counts its images;
// without corroboration (the E8 ablation) both of its nulls count, so
// every org image is covered and the search must visit each.
func TestInertLeafAblation(t *testing.T) {
	I, J, _, _ := appendixExample()
	th := tgd.MustParse("proj(p,e,c) -> task(p,e,O) & org(O,C)")
	jidx := IndexJ(J)
	sapOrg := jidx.IndexOf(data.NewTuple("org", "111", "SAP"))
	googleOrg := jidx.IndexOf(data.NewTuple("org", "222", "Google"))
	an := AnalyzeOne(0, th, I, J, DefaultOptions())
	if !approx(an.CoversOf(sapOrg), 0.5) || an.CoversOf(googleOrg) != 0 {
		t.Errorf("covers(org(111,SAP)), covers(org(222,Google)) = %v, %v, want 1/2, 0",
			an.CoversOf(sapOrg), an.CoversOf(googleOrg))
	}
	naive := AnalyzeOne(0, th, I, J, Options{Corroboration: false})
	if !approx(naive.CoversOf(sapOrg), 1) || !approx(naive.CoversOf(googleOrg), 1) {
		t.Errorf("naive covers(org(111,SAP)), covers(org(222,Google)) = %v, %v, want 1, 1",
			naive.CoversOf(sapOrg), naive.CoversOf(googleOrg))
	}
}
