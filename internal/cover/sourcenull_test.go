package cover

import (
	"reflect"
	"testing"

	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// nullSource builds a source whose labelled nulls carry the given
// label; with null-free tuples only when withNulls is false.
func nullSource(lbl string, withNulls bool) *data.Instance {
	I := data.NewInstance()
	I.Add(data.NewTuple("r", "c", "d"))
	if withNulls {
		n := data.NullValue(lbl)
		I.Add(data.Tuple{Rel: "r", Args: []data.Value{n, data.Const("a")}})
		I.Add(data.Tuple{Rel: "r", Args: []data.Value{data.Const("b"), n}})
	}
	return I
}

// Labelled nulls in the source are data: renaming them — in
// particular to labels the chase itself mints (N1, N2, …) — must leave
// every analysis path unchanged. With r(⊥N1, a) in I, the chase used
// to mint the existential z of the first candidate as N1 too, turning
// t(⊥N1, z) into t(⊥N1, ⊥N1), which has no image in J.
func TestSourceNullRenamingLeavesAnalysisUnchanged(t *testing.T) {
	cands := tgd.Mapping{
		tgd.MustParse("r(x, y) -> t(x, z) & u(z, y)"),
		tgd.MustParse("r(x, y) -> t(x, y)"),
		tgd.MustParse("r(x, y) & r(y, w) -> u(x, w) & t(z, z)"),
	}
	J := data.NewInstance()
	J.Add(data.NewTuple("t", "p", "k"))
	J.Add(data.NewTuple("u", "q", "a"))
	J.Add(data.NewTuple("u", "b", "d"))
	opts := DefaultOptions()
	// The minimal case: I = {r(⊥N1, a)}; t(⊥N1, z) and u(z, a) embed.
	I := data.NewInstance()
	I.Add(data.Tuple{Rel: "r", Args: []data.Value{data.NullValue("N1"), data.Const("a")}})
	if an := AnalyzeN(I, IndexJ(J), cands[:1], opts, 1); an[0].Errors != 0 {
		t.Fatalf("θ0 errors over r(⊥N1, a) = %v, want 0", an[0].Errors)
	}
	want := AnalyzeN(nullSource("Q", true), IndexJ(J), cands, opts, 1)
	for _, lbl := range []string{"N1", "N2", "N3", "Q"} {
		I := nullSource(lbl, true)
		for _, workers := range []int{1, 2} {
			if got := AnalyzeN(I, IndexJ(J), cands, opts, workers); !reflect.DeepEqual(got, want) {
				t.Errorf("AnalyzeN, null %s, %d workers:\ngot  %+v\nwant %+v", lbl, workers, got, want)
			}
		}
		if _, got := BuildTracker(I, IndexJ(J), cands, opts); !reflect.DeepEqual(got, want) {
			t.Errorf("BuildTracker, null %s:\ngot  %+v\nwant %+v", lbl, got, want)
		}
		// The nulls arrive by a source delta on a tracked problem.
		I = nullSource(lbl, false)
		tr, got := BuildTracker(I, IndexJ(J), cands, opts)
		I.AddAll(nullSource(lbl, true).All())
		tr.ApplySourceDelta(I, map[string]bool{"r": true}, cands, got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ApplySourceDelta, null %s:\ngot  %+v\nwant %+v", lbl, got, want)
		}
	}
}
