package cover

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schemamap/internal/ibench"

	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

func TestExplainAppendixExample(t *testing.T) {
	I, J, th1, th3 := appendixExample()
	cands := tgd.Mapping{th1, th3}
	jidx := IndexJ(J)

	// Selecting θ3 only.
	rep := Explain(I, jidx, cands, []bool{false, true}, DefaultOptions())
	mlTask := jidx.IndexOf(data.NewTuple("task", "ML", "Alice", "111"))
	sapOrg := jidx.IndexOf(data.NewTuple("org", "111", "SAP"))

	w, ok := rep.Explained[mlTask]
	if !ok || w.TGDIndex != 1 || !approx(w.Degree, 1) {
		t.Fatalf("task witness = %+v", w)
	}
	// The witnessing homomorphism must map the block null to 111.
	foundNull := false
	for _, v := range w.NullImage {
		if v.Name() == "111" {
			foundNull = true
		}
	}
	if !foundNull {
		t.Errorf("witness null image missing 111: %v", w.NullImage)
	}
	if _, ok := rep.Explained[sapOrg]; !ok {
		t.Error("org tuple unexplained")
	}
	// The two Google/Search tuples stay unexplained.
	if len(rep.Unexplained) != 2 {
		t.Errorf("unexplained = %v, want 2", rep.Unexplained)
	}
	if len(rep.Partial) != 0 {
		t.Errorf("partial = %v, want none under θ3", rep.Partial)
	}
	// θ3 creates two error tuples.
	if got := len(rep.Errors[1]); got != 2 {
		t.Errorf("errors = %d, want 2", got)
	}
	// The binding of the witnessing firing maps p to ML.
	if got := w.Binding["p"]; got.Name() != "ML" {
		t.Errorf("witness binding p = %v, want ML", got)
	}
}

func TestExplainPartialUnderTheta1(t *testing.T) {
	I, J, th1, _ := appendixExample()
	rep := Explain(I, IndexJ(J), tgd.Mapping{th1}, []bool{true}, DefaultOptions())
	if len(rep.Partial) != 1 {
		t.Fatalf("partial = %v, want exactly the ML task tuple", rep.Partial)
	}
	w := rep.Explained[rep.Partial[0]]
	if !approx(w.Degree, 2.0/3.0) {
		t.Errorf("partial degree = %v, want 2/3", w.Degree)
	}
}

func TestExplainEmptySelection(t *testing.T) {
	I, J, th1, th3 := appendixExample()
	rep := Explain(I, IndexJ(J), tgd.Mapping{th1, th3}, []bool{false, false}, DefaultOptions())
	if len(rep.Explained) != 0 || len(rep.Unexplained) != 4 {
		t.Errorf("empty selection: explained %d unexplained %d", len(rep.Explained), len(rep.Unexplained))
	}
}

func TestReportSummary(t *testing.T) {
	I, J, th1, th3 := appendixExample()
	rep := Explain(I, IndexJ(J), tgd.Mapping{th1, th3}, []bool{false, true}, DefaultOptions())
	s := rep.Summary(3)
	for _, want := range []string{"explained 2/4", "unexplained (2)", "erroneous chase tuples (2)", "θ[1] creates"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	// Truncation with a tiny limit.
	s = rep.Summary(1)
	if !strings.Contains(s, "more") {
		t.Errorf("summary with limit 1 should truncate:\n%s", s)
	}
}

// explainGoldenCase is one selection TestExplainGolden renders.
type explainGoldenCase struct {
	name  string
	I, J  *data.Instance
	cands tgd.Mapping
	sel   []bool
}

// explainGoldenCases are the appendix example under both candidates
// and under θ1 alone, and the seeded S scenario with every candidate
// selected.
func explainGoldenCases(t *testing.T) []explainGoldenCase {
	I, J, th1, th3 := appendixExample()
	sc, err := ibench.Generate(scenarioConfigs()[0])
	if err != nil {
		t.Fatal(err)
	}
	all := make([]bool, len(sc.Candidates))
	for i := range all {
		all[i] = true
	}
	return []explainGoldenCase{
		{"appendix, θ1 and θ3", I, J, tgd.Mapping{th1, th3}, []bool{true, true}},
		{"appendix, θ1", I, J, tgd.Mapping{th1}, []bool{true}},
		{"S scenario, every candidate", sc.I, sc.J, sc.Candidates, all},
	}
}

// renderExplain prints every witness in target tuple order, then the
// report's summary.
func renderExplain(rep *Report) string {
	var b strings.Builder
	for j, tu := range rep.JIndex.Tuples {
		if w, ok := rep.Explained[j]; ok {
			fmt.Fprintf(&b, "%v ← %v\n", tu, w)
		}
	}
	b.WriteString(rep.Summary(10))
	return b.String()
}

// The printed report — each witness (candidate, chase tuple, degree,
// null images) and the summary — is pinned by a golden file recorded at
// commit 6c08ea0, when Explain still ran the scan search of
// data.EnumeratePartialHoms over the J instance: the indexed search must
// print the same lines. The file is not regenerated from the indexed
// engine; a change to it needs the scan-engine output it replaces.
func TestExplainGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range explainGoldenCases(t) {
		fmt.Fprintf(&b, "== %s\n", c.name)
		b.WriteString(renderExplain(Explain(c.I, IndexJ(c.J), c.cands, c.sel, DefaultOptions())))
	}
	path := filepath.Join("testdata", "explain.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("Explain output differs from %s:\n%s", path, got)
	}
}

// A witness's NullImage holds the nulls of the block tuples its match
// maps, and no others. In the block a(c9,N1) & l(N1,N2) & b(c3,N3) &
// e(c4,N3), a has no image, so the all-null leaf l shares no null with
// a mapped tuple: the search counts its images instead of mapping it,
// and b's witness binds N3 alone.
func TestExplainWitnessOmitsCountedInertLeaf(t *testing.T) {
	I := data.NewInstance()
	I.Add(data.NewTuple("src", "c9", "c3", "c4"))
	J := data.NewInstance()
	J.Add(data.NewTuple("b", "c3", "v"))
	J.Add(data.NewTuple("e", "c4", "v"))
	J.Add(data.NewTuple("l", "p", "q"))
	d := tgd.MustParse("src(x,y,z) -> a(x,N1) & l(N1,N2) & b(y,N3) & e(z,N3)")
	rep := Explain(I, IndexJ(J), tgd.Mapping{d}, []bool{true}, DefaultOptions())
	w, ok := rep.Explained[0]
	if !ok || w.Degree != 1 || len(w.NullImage) != 1 {
		t.Fatalf("b(c3, v) witness %v (found %v), want degree 1 with one null image", w, ok)
	}
	for _, v := range w.NullImage {
		if v != data.Const("v") {
			t.Errorf("witness %v maps its null to %v, want v", w, v)
		}
	}
}
