// Package core implements the paper's primary contribution: the
// mapping-selection problem. Given a source instance I, a target data
// example J, and a set C of candidate st tgds, select M ⊆ C minimising
// the Eq. (9) objective
//
//	F(M) = w₁·Σ_{t∈J} (1 − explains(M,t))
//	     + w₂·Σ_{θ∈M} Σ_{t′∈K_θ} creates(θ,t′)
//	     + w₃·Σ_{θ∈M} size(θ)
//
// (Eq. (4) is the special case where every candidate is full, for
// which the measures are binary.) The problem is NP-hard (appendix
// Theorem 1, by reduction from SET COVER — see the reduction tests).
//
// Solvers: Exhaustive (branch-and-bound exact), Greedy (forward
// selection with removal pass), Independent (per-candidate decisions —
// the non-collective baseline), and Collective — the paper's approach:
// MAP inference in a hinge-loss MRF built with internal/psl, followed
// by rounding and local repair.
package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"schemamap/internal/cover"
	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// Weights are the objective weights (w₁, w₂, w₃); the appendix proves
// NP-hardness for any positive integers, and the defaults are 1.
type Weights struct {
	Explain float64 // w₁: weight of unexplained J tuples
	Error   float64 // w₂: weight of erroneous chase tuples
	Size    float64 // w₃: weight of mapping size
}

// DefaultWeights returns the unweighted objective of Eq. (9).
func DefaultWeights() Weights { return Weights{Explain: 1, Error: 1, Size: 1} }

// Validate reports an error unless every weight is finite and ≥ 0.
// Entry points that take weights from outside the process check them:
// Eq. (9) has no meaning for other values, and the collective
// relaxation would silently drop a term whose weight is ≤ 0.
func (w Weights) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"w1 (explain)", w.Explain}, {"w2 (error)", w.Error}, {"w3 (size)", w.Size}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("core: weight %s is %v; weights must be finite and ≥ 0", f.name, f.v)
		}
	}
	return nil
}

// Breakdown is an objective value split into its three parts.
type Breakdown struct {
	Unexplained float64 // w₁ · Σ (1 − explains)
	Errors      float64 // w₂ · Σ creates
	Size        float64 // w₃ · Σ size
}

// Total returns the full objective value.
func (b Breakdown) Total() float64 { return b.Unexplained + b.Errors + b.Size }

// String renders the breakdown compactly.
func (b Breakdown) String() string {
	return fmt.Sprintf("F=%.4g (unexplained=%.4g errors=%.4g size=%.4g)",
		b.Total(), b.Unexplained, b.Errors, b.Size)
}

// Problem is one mapping-selection instance.
//
// Mutation contract: after Prepare has run, the instances I and J are
// part of the prepared evidence and must not be mutated directly —
// solvers would silently run on stale analyses. The supported
// post-Prepare mutations are the lifecycle methods — AppendTarget and
// RemoveTarget for J, ApplySourceDelta for I, and
// AddCandidates/RemoveCandidates for C — each of which updates the
// evidence incrementally (see docs/LIFECYCLE.md). Direct mutation is
// detected via the instances' version counters: Solve returns an
// error and Objective panics on a stale problem.
//
// A sub-problem view built by Subproblem has a nil J until its first
// lifecycle mutation builds it; see Subproblem.
type Problem struct {
	I          *data.Instance
	J          *data.Instance
	Candidates tgd.Mapping
	Weights    Weights
	// CoverOptions tune the Eq. (9) measures (corroboration ablation,
	// homomorphism caps).
	CoverOptions cover.Options

	prepareOnce sync.Once
	prepared    bool
	jidx        *cover.JIndex
	analyses    []cover.Analysis
	incidence   *cover.Incidence

	// mu serialises AppendTarget calls; tracker is the retained
	// streaming state (built by PrepareStreaming, or lazily by the
	// first AppendTarget). iVer/jVer are the instance versions the
	// prepared evidence reflects.
	mu         sync.Mutex
	tracker    *cover.Tracker
	iVer, jVer uint64

	// groundMu guards ground, the retained direct-build HL-MRF the
	// collective solvers share across solves and AppendTarget updates
	// incrementally (see grounding).
	groundMu sync.Mutex
	ground   *grounding

	// epoch counts the lifecycle mutations that changed already-prepared
	// evidence (coverage rows, coverage values, error counts, or the
	// candidate set) — i.e. the mutations after which derived structures
	// keyed on the evidence shape, like a shard split, must be
	// recomputed. Pure uncovered growth does not bump it; removals
	// always do (they keep the slot count, which the split cache also
	// keys on).
	epoch atomic.Uint64

	// mutSeq counts every evidence-affecting mutation (appends included:
	// they grow the per-slot state). Deltas are stamped with it and
	// Evaluator uses it to detect staleness; see lifecycle.go.
	mutSeq atomic.Uint64

	// splitMu guards splitVal, splitEpoch, splitTuples: the sharding
	// layer's retained decomposition (an opaque artifact — core does not
	// know the shard types) plus the evidence epoch and tuple count the
	// artifact was computed at. A pure uncovered append keeps the epoch
	// but grows the tuple count, and invalidates the split too (the
	// candidate-free shard changed).
	splitMu     sync.Mutex
	splitVal    any
	splitEpoch  uint64
	splitTuples int
}

// EvidenceEpoch returns the evidence-shape epoch: it changes exactly
// when an AppendTarget altered coverage or error evidence (as opposed
// to only appending uncovered tuples). Derived caches — the sharded
// solver's component split — compare epochs to decide whether they can
// be reused across a warm re-solve.
func (p *Problem) EvidenceEpoch() uint64 { return p.epoch.Load() }

// LoadSplitCache returns the retained sharding decomposition if it is
// still valid — stored at the current evidence epoch AND tuple count —
// and nil otherwise. The artifact's lifetime is tied to the Problem,
// so a retained split never outlives the evidence it decomposes.
func (p *Problem) LoadSplitCache() any {
	p.splitMu.Lock()
	defer p.splitMu.Unlock()
	if p.splitVal == nil || p.splitEpoch != p.epoch.Load() || p.splitTuples != p.JIndex().Len() {
		return nil
	}
	return p.splitVal
}

// StoreSplitCache retains a sharding decomposition computed against
// the Problem's current evidence. The sharded solver populates it only
// on warm re-solves, so one-shot cold solves never pay the retention.
func (p *Problem) StoreSplitCache(v any) {
	p.splitMu.Lock()
	p.splitVal = v
	p.splitEpoch = p.epoch.Load()
	p.splitTuples = p.JIndex().Len()
	p.splitMu.Unlock()
}

// NewProblem builds a problem with default weights and cover options.
func NewProblem(I, J *data.Instance, candidates tgd.Mapping) *Problem {
	return &Problem{
		I:            I,
		J:            J,
		Candidates:   candidates,
		Weights:      DefaultWeights(),
		CoverOptions: cover.DefaultOptions(),
	}
}

// Prepare chases every candidate and computes the Eq. (9) evidence,
// analysing candidates with a worker pool sized to GOMAXPROCS. It
// runs exactly once per Problem and is safe for concurrent use, so
// one prepared Problem can be shared across concurrent solver calls;
// solvers call it automatically.
func (p *Problem) Prepare() { p.PrepareN(0) }

// PrepareN is Prepare with an explicit bound on the candidate-
// analysis worker pool: 1 forces serial analysis, 0 means GOMAXPROCS.
// The chase + cover analysis per candidate is independent, so the
// work is embarrassingly parallel. Only the first Prepare/PrepareN
// call on a Problem does work; later calls (any bound) return
// immediately.
func (p *Problem) PrepareN(workers int) { p.prepareWith(workers, false) }

// PrepareStreaming is Prepare for problems whose target will grow: it
// additionally retains the streaming state AppendTarget consumes
// (chase blocks and error sets), so the first append does not have to
// rebuild it. The analyses are value-identical to Prepare's. Workers
// semantics match PrepareN.
func (p *Problem) PrepareStreaming(workers int) { p.prepareWith(workers, true) }

func (p *Problem) prepareWith(workers int, streaming bool) {
	p.prepareOnce.Do(func() {
		p.jidx = cover.IndexJ(p.J)
		if streaming {
			p.tracker, p.analyses = cover.BuildTracker(p.I, p.jidx, p.Candidates, p.CoverOptions, workers)
		} else {
			p.analyses = cover.AnalyzeN(p.I, p.jidx, p.Candidates, p.CoverOptions, workers)
		}
		p.incidence = cover.BuildIncidence(p.jidx.Len(), p.analyses)
		p.iVer, p.jVer = p.I.Version(), p.J.Version()
		p.prepared = true
	})
}

// TargetDelta reports what one AppendTarget changed; see
// cover.TrackerDelta for the fields. Evaluators created before the
// append apply it via Evaluator.ExtendTarget (or Resync).
type TargetDelta = cover.TrackerDelta

// AppendTarget grows the target J by the given tuples (duplicates of
// existing J tuples are ignored) and applies the delta to the prepared
// evidence instead of invalidating it: new tuples take the next index
// ids, only chase blocks matching the delta are re-enumerated, error
// tuples are probed against the delta alone, and the incidence is
// refreshed. The resulting evidence is value-identical to a cold
// Prepare over the grown target (see cover.Tracker).
//
// AppendTarget prepares the problem if needed, serialises concurrent
// appends, and must not run concurrently with Solve/Objective calls
// on the same Problem — re-solve after the append returns (typically
// with WithWarmStart). If the problem was prepared without
// PrepareStreaming, the first append rebuilds the retained streaming
// state once (about one Prepare's worth of work); later appends are
// incremental.
func (p *Problem) AppendTarget(tuples []data.Tuple) (*TargetDelta, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Prepare()
	if err := p.CheckFresh(); err != nil {
		return nil, err
	}
	p.ensureTracker()
	var added []data.Tuple
	for _, t := range tuples {
		if p.J.Add(t) {
			added = append(added, t)
		}
	}
	delta := p.tracker.Append(added, p.analyses, 0)
	if len(added) > 0 {
		if len(delta.PairsChanged) == 0 {
			// No coverage row changed: the appended tuples are (so far)
			// uncovered, so the incidence only grows empty rows.
			p.incidence.Grow(p.jidx.Len())
		} else {
			p.incidence = cover.BuildIncidence(p.jidx.Len(), p.analyses)
		}
	}
	if len(delta.PairsChanged) > 0 || len(delta.ChangedTuples) > 0 || len(delta.ErrorsChanged) > 0 {
		p.epoch.Add(1)
	}
	// Re-ground only the delta-dirty factors of the retained MRF; the
	// rare transitions the slot surgery cannot express drop it (the
	// next collective solve rebuilds cold).
	p.groundMu.Lock()
	if p.ground != nil && !p.ground.applyDelta(p, delta) {
		p.ground = nil
	}
	p.groundMu.Unlock()
	p.jVer = p.J.Version()
	if len(added) > 0 {
		delta.Seq = p.mutSeq.Add(1)
	} else {
		delta.Seq = p.mutSeq.Load()
	}
	return delta, nil
}

// Fork returns an independent copy of the problem for private
// mutation: it shares the immutable source instance and candidate set
// but clones the target, so AppendTarget on the fork never affects the
// original. This is the copy-on-append path of serving workloads: many
// sessions share one prepared Problem for solves, and a session that
// starts appending forks its own. The fork is unprepared — prepare it
// with PrepareStreaming (or let the first solve/append do it).
//
// Fork is safe to call concurrently with Solve/Objective on the
// original (those only read), and serialises against AppendTarget so
// the target is never cloned mid-append.
func (p *Problem) Fork() *Problem {
	p.mu.Lock()
	defer p.mu.Unlock()
	return &Problem{
		I:            p.I,
		J:            p.cloneTarget(),
		Candidates:   p.Candidates,
		Weights:      p.Weights,
		CoverOptions: p.CoverOptions,
	}
}

// CheckFresh reports whether the prepared evidence still reflects the
// problem's instances; it returns a descriptive error when I or J was
// mutated directly after Prepare (the stale-evidence hazard). Appends
// through AppendTarget keep the problem fresh. Solvers call this after
// their prepare phase.
func (p *Problem) CheckFresh() error {
	if !p.prepared {
		return nil
	}
	if p.I.Version() != p.iVer || (p.J != nil && p.J.Version() != p.jVer) {
		return fmt.Errorf("core: problem instances were mutated after Prepare — the evidence is stale; grow J with AppendTarget, or build a new Problem")
	}
	return nil
}

// ensureTracker readies a prepared problem for a lifecycle mutation:
// it builds a sub-problem view's target instance (see Subproblem) and
// the retained streaming state when they are missing. Callers hold mu.
func (p *Problem) ensureTracker() {
	if p.J == nil {
		p.J = targetOf(p.jidx)
		p.jVer = p.J.Version()
	}
	if p.tracker == nil {
		p.tracker, p.analyses = cover.BuildTracker(p.I, p.jidx, p.Candidates, p.CoverOptions, 0)
	}
}

// cloneTarget returns a private copy of the target for a fork; a
// sub-problem view's copy is built from its tuples, leaving the view
// itself untouched. Callers hold mu.
func (p *Problem) cloneTarget() *data.Instance {
	if p.J == nil {
		return targetOf(p.jidx)
	}
	return p.J.Clone()
}

// mustFresh is CheckFresh for paths without an error return.
func (p *Problem) mustFresh() {
	if err := p.CheckFresh(); err != nil {
		panic(err)
	}
}

// Analyses exposes the per-candidate evidence (after Prepare).
func (p *Problem) Analyses() []cover.Analysis {
	p.Prepare()
	return p.analyses
}

// JIndex exposes the target-tuple index (after Prepare).
func (p *Problem) JIndex() *cover.JIndex {
	p.Prepare()
	return p.jidx
}

// Incidence exposes the inverted tuple→candidate evidence (after
// Prepare); solvers use it to rescan only the candidates incident to
// a tuple.
func (p *Problem) Incidence() *cover.Incidence {
	p.Prepare()
	return p.incidence
}

// NumCandidates returns |C|.
func (p *Problem) NumCandidates() int { return len(p.Candidates) }

// Objective evaluates F at the selection described by sel (sel[i]
// true iff candidate i is selected). len(sel) must equal |C|.
func (p *Problem) Objective(sel []bool) Breakdown {
	p.Prepare()
	p.mustFresh()
	var b Breakdown
	// Max coverage per J tuple over the selected candidates.
	maxCov := make([]float64, p.jidx.Len())
	for i, on := range sel {
		if !on {
			continue
		}
		a := &p.analyses[i]
		b.Errors += p.Weights.Error * a.Errors
		b.Size += p.Weights.Size * float64(a.Size)
		for _, pr := range a.Pairs {
			if pr.Cov > maxCov[pr.J] {
				maxCov[pr.J] = pr.Cov
			}
		}
	}
	for j, c := range maxCov {
		if !p.jidx.Live(j) {
			continue // tombstoned slot: not a target tuple anymore
		}
		b.Unexplained += p.Weights.Explain * (1 - c)
	}
	return b
}

// SelectedMapping returns the tgds picked by sel.
func (p *Problem) SelectedMapping(sel []bool) tgd.Mapping {
	var m tgd.Mapping
	for i, on := range sel {
		if on {
			m = append(m, p.Candidates[i])
		}
	}
	return m
}

// Selection is a solver result.
type Selection struct {
	// Chosen flags the selected candidates (len = |C|).
	Chosen []bool
	// Objective is F at the selection.
	Objective Breakdown
	// Solver names the producing algorithm.
	Solver string
	// Runtime is wall-clock solve time (excluding Prepare).
	Runtime time.Duration
	// Iterations is solver-specific work (nodes, passes, ADMM iters).
	Iterations int
	// Truncated reports that a WithBudget soft budget ran out before
	// the solver finished; the selection is its best so far.
	Truncated bool
	// Unconverged reports that the solver's continuous relaxation
	// stopped before meeting its convergence tolerance: the ADMM
	// iteration cap was reached, or a soft budget cut inference short
	// (then Truncated is set too). The selection is still rounded and
	// repaired, but from an approximate relaxation; raising
	// psl.ADMMOptions.MaxIterations is the remedy. Solvers without an
	// iterative relaxation never set it.
	Unconverged bool
	// Relaxation, for the collective solver, holds the continuous
	// ADMM values of the selection variables before rounding.
	Relaxation []float64
}

// Indices returns the selected candidate indices.
func (s *Selection) Indices() []int {
	var out []int
	for i, on := range s.Chosen {
		if on {
			out = append(out, i)
		}
	}
	return out
}

// Count returns the number of selected candidates.
func (s *Selection) Count() int {
	n := 0
	for _, on := range s.Chosen {
		if on {
			n++
		}
	}
	return n
}

// Solver is a mapping-selection algorithm. Solve honours context
// cancellation at its iteration checkpoints — a cancelled or expired
// ctx makes it return promptly with ctx.Err(). The one exception is
// the shared Prepare phase: it runs once per Problem for all callers,
// so cancellation during it is honoured at the first checkpoint after
// (latency bounded by the prepare duration). Solve accepts
// per-call functional options (WithBudget, WithProgress,
// WithParallelism, WithSeed). Solvers are stateless values: one
// Solver and one prepared Problem may be shared across concurrent
// Solve calls.
type Solver interface {
	Name() string
	Solve(ctx context.Context, p *Problem, opts ...SolveOption) (*Selection, error)
}
