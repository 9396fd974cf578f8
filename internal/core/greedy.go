package core

import (
	"context"
	"time"
)

// GreedySolver performs forward selection on the true objective:
// repeatedly add the candidate with the largest improvement of F,
// then run removal passes, until a fixed point. It is a strong
// combinatorial baseline, but — unlike the collective solver — each
// step is myopic.
type GreedySolver struct{}

// Name implements Solver.
func (s GreedySolver) Name() string { return "greedy" }

// Solve implements Solver. The context is checked before every
// candidate scan (each scan is O(|C|·nnz)); an expired WithBudget
// ends the add/remove passes early and returns the current selection
// flagged Truncated. With WithWarmStart the passes begin from the
// prior selection instead of empty — near a fixed point they
// terminate after a sweep or two.
func (s GreedySolver) Solve(ctx context.Context, p *Problem, options ...SolveOption) (*Selection, error) {
	r := newRun(ctx, s.Name(), options)
	if err := r.prepare(p); err != nil {
		return nil, err
	}
	start := time.Now() //lint:wallclock timing-only: feeds Selection.Elapsed, never the selection
	n := p.NumCandidates()
	init := make([]bool, n)
	if w := r.cfg.Warm; w != nil {
		copy(init, w.Chosen) // copy stops at min(len, n); extra entries stay off
	}
	ev := NewEvaluator(p, init)
	steps := 0
	truncated := false

passes:
	for pass := 0; pass < localSearchPasses; pass++ {
		r.emitObjective("pass", pass, ev.Total())
		improved := false
		// Forward additions: pick the best single addition until none
		// improves.
		for {
			stop, err := r.checkpoint()
			if err != nil {
				return nil, err
			}
			if stop {
				truncated = true
				break passes
			}
			bestI, bestDelta := -1, -1e-12
			for i := 0; i < n; i++ {
				if ev.Selected(i) {
					continue
				}
				steps++
				if d := ev.FlipDelta(i); d < bestDelta {
					bestI, bestDelta = i, d
				}
			}
			if bestI < 0 {
				break
			}
			ev.Flip(bestI)
			improved = true
		}
		stop, err := r.checkpoint()
		if err != nil {
			return nil, err
		}
		if stop {
			truncated = true
			break
		}
		// Removal pass.
		for i := 0; i < n; i++ {
			if !ev.Selected(i) {
				continue
			}
			steps++
			if ev.FlipDelta(i) < -1e-12 {
				ev.Flip(i)
				improved = true
			}
		}
		// Warm starts inherit the prior target's structure, and the
		// characteristic trap of a stale selection is a partial
		// candidate blocking the now-better full one — invisible to
		// single flips. Escape it with repair's swapPass; cold solves
		// skip it, so their fixed points — and the recorded baselines —
		// are unchanged.
		if r.cfg.Warm != nil && !improved {
			improved = swapPass(ev, n, &steps)
		}
		if !improved {
			break
		}
	}

	sel := ev.Selection()
	return &Selection{
		Chosen:     sel,
		Objective:  p.Objective(sel),
		Solver:     s.Name(),
		Runtime:    time.Since(start),
		Iterations: steps,
		Truncated:  truncated,
	}, nil
}

// IndependentSolver decides each candidate in isolation: include θ iff
// selecting it alone improves on the empty mapping, i.e. iff its solo
// explanation gain w₁·Σ_t covers(θ,t) exceeds its solo cost
// w₂·errors(θ) + w₃·size(θ). This ignores all interactions between
// candidates (overlapping coverage, shared errors) and is the
// non-collective baseline the paper argues against.
type IndependentSolver struct{}

// Name implements Solver.
func (s IndependentSolver) Name() string { return "independent" }

// Solve implements Solver. The single per-candidate pass is O(|C|);
// the context is checked once before it starts.
func (s IndependentSolver) Solve(ctx context.Context, p *Problem, options ...SolveOption) (*Selection, error) {
	r := newRun(ctx, s.Name(), options)
	if err := r.prepare(p); err != nil {
		return nil, err
	}
	start := time.Now() //lint:wallclock timing-only: feeds Selection.Elapsed, never the selection
	n := p.NumCandidates()
	sel := make([]bool, n)
	r.emit("scan", 0)
	for i := 0; i < n; i++ {
		a := &p.analyses[i]
		gain := p.Weights.Explain * a.TotalCoverage()
		cost := p.Weights.Error*a.Errors + p.Weights.Size*float64(a.Size)
		if gain > cost {
			sel[i] = true
		}
	}
	return &Selection{
		Chosen:     sel,
		Objective:  p.Objective(sel),
		Solver:     s.Name(),
		Runtime:    time.Since(start),
		Iterations: n,
	}, nil
}
