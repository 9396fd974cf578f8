package bench

import (
	"sort"

	"schemamap/internal/core"
	"schemamap/internal/cover"
	"schemamap/internal/data"
)

// coldOf builds a fresh problem over the mutated problem's live target
// tuples and current candidate set — the cold side of the per-step
// differential.
func coldOf(p *core.Problem) *core.Problem {
	J := data.NewInstance()
	jidx := p.JIndex()
	for j, t := range jidx.Tuples {
		if jidx.Live(j) {
			J.Add(t)
		}
	}
	cold := core.NewProblem(p.I, J, p.Candidates)
	cold.Weights = p.Weights
	cold.CoverOptions = p.CoverOptions
	return cold
}

// EvidenceIdentical compares an incrementally mutated problem's
// evidence against a cold problem over the same live target tuples,
// up to the tuple-id permutation induced by arrival order; coverage
// and error values must be bitwise equal. Tombstoned slots left by
// RemoveTarget are skipped — the mutated problem's live tuple set
// must equal the cold target. The check replay of every stepped trace
// and the concurrency stress tests gate on it.
func EvidenceIdentical(p, cold *core.Problem) bool {
	got, want := p.Analyses(), cold.Analyses()
	if len(got) != len(want) {
		return false
	}
	pj, cj := p.JIndex(), cold.JIndex()
	if pj.NumLive() != cj.NumLive() {
		return false
	}
	var remapped []cover.CoverPair
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Size != w.Size || g.Errors != w.Errors || g.KTuples != w.KTuples ||
			g.Firings != w.Firings || len(g.Pairs) != len(w.Pairs) {
			return false
		}
		remapped = remapped[:0]
		for _, pr := range g.Pairs {
			j := cj.IndexOf(pj.Tuples[pr.J])
			if j < 0 {
				return false
			}
			remapped = append(remapped, cover.CoverPair{J: int32(j), Cov: pr.Cov})
		}
		sort.Slice(remapped, func(a, b int) bool { return remapped[a].J < remapped[b].J })
		for k := range remapped {
			if remapped[k] != w.Pairs[k] {
				return false
			}
		}
	}
	// Same live target as tuple sets (both directions covered by equal
	// live counts plus the IndexOf lookups below).
	for j, t := range pj.Tuples {
		if !pj.Live(j) {
			continue
		}
		if cj.IndexOf(t) < 0 {
			return false
		}
	}
	return true
}
