package core

import (
	"context"
	"fmt"
	"time"
)

// ExhaustiveSolver finds the exact optimum of Eq. (9) by depth-first
// branch and bound over the 2^|C| selections. It is the ground truth
// for small candidate sets (the problem is NP-hard; see the SET COVER
// reduction tests) and the reference for the E6 approximation-quality
// experiment. Beyond toy sizes the search is expected to run under a
// WithBudget soft budget, which truncates it to an anytime solver
// returning the incumbent. Solve refuses problems with more than
// exhaustiveCap candidates.
type ExhaustiveSolver struct{}

// Name implements Solver.
func (s ExhaustiveSolver) Name() string { return "exhaustive" }

// checkEvery is the branch-and-bound cancellation-checkpoint cadence
// (nodes between context checks).
const checkEvery = 1024

// exhaustiveCap guards against accidental exponential blowups: Solve
// returns an error above it. The selection state is a bitset of uint64
// words, so the cap bounds a snapshot to 2 words.
const exhaustiveCap = 128

// selWords returns the number of uint64 words covering n candidates.
func selWords(n int) int { return (n + 63) / 64 }

// Solve implements Solver. The search checks the context every
// checkEvery nodes: a cancelled ctx aborts with ctx.Err(), while an
// expired WithBudget stops expanding and returns the incumbent
// selection flagged Truncated.
func (s ExhaustiveSolver) Solve(ctx context.Context, p *Problem, options ...SolveOption) (*Selection, error) {
	if p.NumCandidates() > exhaustiveCap {
		return nil, fmt.Errorf("core: exhaustive solver limited to %d candidates, got %d", exhaustiveCap, p.NumCandidates())
	}
	r := newRun(ctx, s.Name(), options)
	if err := r.prepare(p); err != nil {
		return nil, err
	}
	start := time.Now() //lint:wallclock timing-only: feeds Selection.Elapsed, never the selection

	n := p.NumCandidates()
	nj := p.jidx.Len()
	// liveJ lists the live slot ids: tombstoned slots contribute no w₁
	// term to F (Objective skips them), so the bound and leaf loops
	// below must skip them too or the root lower bound would exceed the
	// live-aware incumbent and prune the whole search.
	liveJ := make([]int32, 0, nj)
	for j := 0; j < nj; j++ {
		if p.jidx.Live(j) {
			liveJ = append(liveJ, int32(j))
		}
	}

	// Per-candidate linear cost (errors + size) and sparse coverage.
	// Candidates that cover nothing can only add cost; fixing them to
	// "excluded" up front is the Section III-C preprocessing and
	// shrinks the search space considerably under heavy metadata
	// noise.
	cost := make([]float64, n)
	useless := make([]bool, n)
	pairs := 0
	for i := range p.analyses {
		a := &p.analyses[i]
		cost[i] = p.Weights.Error*a.Errors + p.Weights.Size*float64(a.Size)
		useless[i] = len(a.Pairs) == 0
		pairs += len(a.Pairs)
	}

	// bestCovSuffix[i][j]: the max coverage of J tuple j achievable
	// using candidates i..n-1 — used for the lower bound. The rows are
	// cut from one array.
	suffix := make([]float64, (n+1)*nj)
	bestCovSuffix := make([][]float64, n+1)
	bestCovSuffix[n] = suffix[n*nj:]
	for i := n - 1; i >= 0; i-- {
		row := suffix[i*nj : (i+1)*nj]
		copy(row, bestCovSuffix[i+1])
		for _, pr := range p.analyses[i].Pairs {
			if pr.Cov > row[pr.J] {
				row[pr.J] = pr.Cov
			}
		}
		bestCovSuffix[i] = row
	}

	// Selection state as uint64 bitset words: cheap to snapshot into
	// the incumbent at leaves, and sized by the candidate cap rather
	// than a hard-coded word.
	words := selWords(n)
	sel := make([]uint64, words)
	best := make([]uint64, words)
	bestVal := p.Objective(make([]bool, n)).Total()
	maxCov := make([]float64, nj)
	// Undo stack for maxCov updates, shared across recursion levels
	// (each level records its mark). A path pushes at most one entry
	// per pair of its included candidates, so Σ|Pairs| entries hold
	// the deepest path and branching allocates nothing.
	type undo struct {
		j   int32
		old float64
	}
	undos := make([]undo, 0, pairs)
	nodes := 0
	var stopErr error // caller cancellation, unwinds the recursion
	truncated := false

	var rec func(i int, linear float64)
	rec = func(i int, linear float64) {
		if stopErr != nil || truncated {
			return
		}
		nodes++
		if nodes%checkEvery == 0 {
			stop, err := r.checkpoint()
			if err != nil {
				stopErr = err
				return
			}
			if stop {
				truncated = true
				return
			}
			if nodes%(64*checkEvery) == 0 {
				r.emitObjective("search", nodes, bestVal)
			}
		}
		// Lower bound: linear costs committed so far plus the best
		// possible explanation using all remaining candidates for free.
		lb := linear
		for _, j := range liveJ {
			c := maxCov[j]
			if r := bestCovSuffix[i][j]; r > c {
				c = r
			}
			lb += p.Weights.Explain * (1 - c)
		}
		if lb >= bestVal {
			return
		}
		if i == n {
			total := linear
			for _, j := range liveJ {
				total += p.Weights.Explain * (1 - maxCov[j])
			}
			if total < bestVal {
				bestVal = total
				copy(best, sel)
			}
			return
		}
		if useless[i] {
			rec(i+1, linear)
			return
		}
		// Branch: include candidate i first (tends to tighten bounds
		// when coverage is valuable), then exclude.
		a := &p.analyses[i]
		mark := len(undos)
		for _, pr := range a.Pairs {
			if pr.Cov > maxCov[pr.J] {
				undos = append(undos, undo{pr.J, maxCov[pr.J]})
				maxCov[pr.J] = pr.Cov
			}
		}
		sel[i>>6] |= 1 << (uint(i) & 63)
		rec(i+1, linear+cost[i])
		sel[i>>6] &^= 1 << (uint(i) & 63)
		for k := len(undos) - 1; k >= mark; k-- {
			maxCov[undos[k].j] = undos[k].old
		}
		undos = undos[:mark]
		rec(i+1, linear)
	}
	rec(0, 0)
	if stopErr != nil {
		return nil, stopErr
	}

	chosen := make([]bool, n)
	for i := 0; i < n; i++ {
		chosen[i] = best[i>>6]&(1<<(uint(i)&63)) != 0
	}
	return &Selection{
		Chosen:     chosen,
		Objective:  p.Objective(chosen),
		Solver:     s.Name(),
		Runtime:    time.Since(start),
		Iterations: nodes,
		Truncated:  truncated,
	}, nil
}
