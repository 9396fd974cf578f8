package cover

import (
	"sort"

	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// Conveniences over the production entry points (AnalyzeN, the
// per-candidate worker) that only this package's tests use.

// Analyze is AnalyzeN over GOMAXPROCS workers.
func Analyze(I *data.Instance, jidx *JIndex, candidates tgd.Mapping, opts Options) []Analysis {
	return AnalyzeN(I, jidx, candidates, opts, 0)
}

// AnalyzeOne computes the Analysis of a single candidate.
func AnalyzeOne(index int, d *tgd.TGD, I, J *data.Instance, opts Options) Analysis {
	return newAnalyzeWorker(IndexJ(J)).analyzeOne(index, d, I, opts, nil)
}

// CoversOf returns covers(θ, t) for J tuple index j.
func (a *Analysis) CoversOf(j int) float64 {
	k := sort.Search(len(a.Pairs), func(i int) bool { return int(a.Pairs[i].J) >= j })
	if k < len(a.Pairs) && int(a.Pairs[k].J) == j {
		return a.Pairs[k].Cov
	}
	return 0
}

// NumCovered returns the number of J tuples covered to a positive
// degree.
func (a *Analysis) NumCovered() int { return len(a.Pairs) }
