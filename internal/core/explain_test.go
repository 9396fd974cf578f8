package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"schemamap/internal/cover"
	"schemamap/internal/data"
	"schemamap/internal/ibench"
)

// cover.Explain, run on a prepared problem's own JIndex and options,
// must agree with the problem's evidence: each witness's degree is the
// tuple's maximum Pairs degree over the selected candidates, reached
// by the lowest such candidate index; Unexplained and Partial are the
// live tuples with maximum 0 and below 1; and each selected
// candidate's error tuples number its Analysis.Errors; the summary
// counts live tuples. The problems
// are each streaming scenario prepared cold, and prepared for
// streaming on half the target, then grown by an AppendTarget of the
// rest and shrunk by a RemoveTarget, so its index holds tombstones.
// Both every candidate and collective's selection are explained.
func TestExplainMatchesEvidence(t *testing.T) {
	for ci, cfg := range streamConfigs() {
		sc, err := ibench.Generate(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		cold := NewProblem(sc.I, sc.J, sc.Candidates)
		rng := rand.New(rand.NewSource(int64(ci)*5 + 1))
		initial, rest := splitTarget(sc.J, 1, rng)
		streamed := NewProblem(sc.I, initial, sc.Candidates)
		streamed.PrepareStreaming(0)
		if _, err := streamed.AppendTarget(rest[0]); err != nil {
			t.Fatal(err)
		}
		var removed []data.Tuple
		for _, tu := range sc.J.All() {
			if rng.Intn(5) == 0 {
				removed = append(removed, tu)
			}
		}
		if _, err := streamed.RemoveTarget(removed); err != nil {
			t.Fatal(err)
		}
		for _, p := range []*Problem{cold, streamed} {
			all := make([]bool, p.NumCandidates())
			for i := range all {
				all[i] = true
			}
			coll, err := CollectiveSolver{}.Solve(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			jidx := p.JIndex()
			for name, sel := range map[string][]bool{"every candidate": all, "collective's selection": coll.Chosen} {
				label := fmt.Sprintf("config %d, %d of %d tuples live, %s", ci, jidx.NumLive(), jidx.Len(), name)
				assertExplainMatchesEvidence(t, label, p, sel)
			}
		}
	}
}

// assertExplainMatchesEvidence checks the report of one selection
// against the problem's evidence (see TestExplainMatchesEvidence).
func assertExplainMatchesEvidence(t *testing.T, label string, p *Problem, sel []bool) {
	t.Helper()
	jidx, analyses := p.JIndex(), p.Analyses()
	rep := cover.Explain(p.I, jidx, p.Candidates, sel, p.CoverOptions)
	// maxDeg[j] is tuple j's maximum degree over the selection, first
	// reached by candidate by[j].
	maxDeg, by := make([]float64, jidx.Len()), make([]int, jidx.Len())
	for ci, on := range sel {
		if !on {
			continue
		}
		for _, pr := range analyses[ci].Pairs {
			if pr.Cov > maxDeg[pr.J] {
				maxDeg[pr.J], by[pr.J] = pr.Cov, ci
			}
		}
		if got, want := len(rep.Errors[ci]), int(analyses[ci].Errors); got != want {
			t.Errorf("%s: candidate %d has %d error tuples, its analysis counts %d", label, ci, got, want)
		}
	}
	var unexplained, partial []int
	for j, deg := range maxDeg {
		w, ok := rep.Explained[j]
		switch {
		case !jidx.Live(j) || deg == 0:
			if ok {
				t.Errorf("%s: tuple %d (live %v) has witness %v, no selected candidate covers it", label, j, jidx.Live(j), w)
			}
			if jidx.Live(j) {
				unexplained = append(unexplained, j)
			}
			continue
		case deg < 1:
			partial = append(partial, j)
		}
		if !ok || w.Degree != deg || w.TGDIndex != by[j] {
			t.Errorf("%s: tuple %d witness %v (found %v), want degree %v by candidate %d", label, j, w, ok, deg, by[j])
		}
	}
	if !slices.Equal(rep.Unexplained, unexplained) {
		t.Errorf("%s: Unexplained %v, want the live uncovered tuples %v", label, rep.Unexplained, unexplained)
	}
	if !slices.Equal(rep.Partial, partial) {
		t.Errorf("%s: Partial %v, want %v", label, rep.Partial, partial)
	}
	if want := fmt.Sprintf("explained %d/%d target tuples", len(rep.Explained), jidx.NumLive()); !strings.HasPrefix(rep.Summary(1), want) {
		t.Errorf("%s: summary does not start %q:\n%s", label, want, rep.Summary(1))
	}
}
