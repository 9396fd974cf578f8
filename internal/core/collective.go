package core

import (
	"context"
	"errors"
	"sort"
	"time"

	"schemamap/internal/psl"
)

// CollectiveSolver is the paper's approach: encode mapping selection
// as MAP inference in a hinge-loss Markov random field (a PSL
// program), solve the convex relaxation with ADMM, then round the
// continuous selection and repair it with local flips against the
// true Eq. (9) objective.
//
// The paper's PSL program has one variable In(θ) per candidate and one
// variable Explained(t) per (non-certainly-unexplained) J tuple, with
// the reward w₁·max(0, 1 − Explained(t)), the summation constraint
// Explained(t) ≤ Σ_θ covers(θ,t)·In(θ), and the prior
// (w₂·errors(θ) + w₃·size(θ)) : !In(θ). At the optimum
// Explained(t) = min(1, Σ covers·In), so each tuple's pair is exactly
// one hinge, and the ground HL-MRF is:
//
//   - prior (w₂·errors(θ) + w₃·size(θ))·In(θ) for every θ;
//   - hinge w₁·max(0, 1 − Σ_θ covers(θ,t)·In(θ)) for every covered t.
//
// It has only the In variables and no hard constraints, and its MAP
// state minimises the standard LP relaxation of Eq. (9) in which the
// per-tuple max over selected candidates is relaxed to a capped sum
// (Bach et al., JMLR 2017). The PSL program itself is the test oracle
// this grounding must match.
type CollectiveSolver struct {
	// ADMM are the inference options (zero value → defaults).
	ADMM psl.ADMMOptions
}

// Name implements Solver.
func (s CollectiveSolver) Name() string { return "collective" }

// warmEpsilonRel is the relative residual tolerance warm re-solves on
// a retained grounding use (Boyd et al. §3.3). Cold solves polish to
// the absolute Epsilon; an incremental re-solve only needs accuracy
// on the scale of the append's perturbation — the rounded selection
// stops changing orders of magnitude before the absolute threshold is
// reached, and the streaming gates (warm objective ≡ cold objective,
// differential evidence) verify exactly that. Without this, re-solves
// spend half their iterations polishing digits rounding discards.
const warmEpsilonRel = 1e-3

// Solve implements Solver. Cancelling ctx aborts the ADMM loop at its
// next iteration and returns ctx.Err(); an expired WithBudget instead
// stops inference early and proceeds to rounding + repair on the
// partial relaxation, flagging the result Truncated.
func (s CollectiveSolver) Solve(ctx context.Context, p *Problem, options ...SolveOption) (*Selection, error) {
	r := newRun(ctx, s.Name(), options)
	if err := r.prepare(p); err != nil {
		return nil, err
	}
	start := time.Now() //lint:wallclock timing-only: feeds Selection.Elapsed, never the selection

	// The ground MRF (and the last ADMM dual state) is retained on the
	// Problem: cold solves reuse the grounding as-is, and AppendTarget
	// re-grounds only delta-dirty factors, so a streaming re-solve
	// skips the whole grounding phase.
	g := p.directGrounding()
	mrf := g.mrf

	// Only the iteration cap gets a solver-specific default;
	// SolveMAP fills in zero Rho/Epsilon itself, so user-set
	// fields survive.
	opts := s.ADMM
	if opts.MaxIterations == 0 {
		opts.MaxIterations = 3000
	}
	if opts.Seed == 0 {
		opts.Seed = r.cfg.Seed
	}
	if r.cfg.Progress != nil {
		prev := opts.Progress
		opts.Progress = func(iter int) {
			if prev != nil {
				prev(iter)
			}
			r.emit("admm", iter)
		}
	}
	if w := r.cfg.Warm; w != nil && len(opts.Initial) == 0 {
		opts.Initial = warmRelax(p, w)
		// Dual warm restart: resume from the retained state of the
		// previous solve (delta-dirty slots were tombstoned or
		// rescaled by AppendTarget). Cold solves never take this path,
		// so recorded baselines stay bit-identical.
		if st := g.takeState(); st != nil {
			opts.Warm = st
		}
		if opts.EpsilonRel == 0 {
			opts.EpsilonRel = warmEpsilonRel
		}
	}
	// Always capture so even a cold solve leaves duals behind for the
	// first warm re-solve.
	opts.CaptureState = true
	// The soft budget becomes an inference deadline; the caller's ctx
	// stays the hard stop.
	admmCtx := ctx
	if !r.deadline.IsZero() {
		var cancel context.CancelFunc
		admmCtx, cancel = context.WithDeadline(ctx, r.deadline)
		defer cancel()
	}
	truncated := false
	sol, err := psl.SolveMAP(admmCtx, mrf, opts)
	if err != nil {
		switch {
		case ctx.Err() != nil:
			// Hard cancellation from the caller.
			return nil, ctx.Err()
		case errors.Is(err, context.DeadlineExceeded):
			// Soft budget: round and repair the partial relaxation.
			truncated = true
		case sol == nil:
			return nil, err
		}
		// Infeasibility at loose tolerance is survivable: rounding
		// only needs the relative order of the In values.
	}
	g.putState(sol.State)
	relax := sol.X // variable i is candidate i's In atom

	r.emit("round", sol.Iterations)
	sel := round(p, relax)
	if r.cfg.Progress != nil {
		r.emitObjective("repair", sol.Iterations, p.Objective(sel).Total())
	}
	sel = repair(p, sel)
	if err := r.err(); err != nil {
		return nil, err
	}

	return &Selection{
		Chosen:      sel,
		Objective:   p.Objective(sel),
		Solver:      s.Name(),
		Runtime:     time.Since(start),
		Iterations:  sol.Iterations,
		Truncated:   truncated,
		Unconverged: !sol.Converged,
		Relaxation:  relax,
	}, nil
}

// round converts the continuous relaxation to a boolean selection: it
// sweeps every distinct relaxation value as a threshold and keeps the
// best true objective.
func round(p *Problem, relax []float64) []bool {
	n := len(relax)
	// Distinct thresholds, descending; the empty selection is the
	// implicit starting point.
	vals := append([]float64(nil), relax...)
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	best := make([]bool, n)
	bestVal := p.Objective(best).Total()
	sel := make([]bool, n)
	prev := 2.0
	for _, v := range vals {
		if v >= prev-1e-12 {
			continue
		}
		prev = v
		for i, r := range relax {
			sel[i] = r >= v-1e-12
		}
		if got := p.Objective(sel).Total(); got < bestVal-1e-12 {
			bestVal = got
			copy(best, sel)
		}
	}
	// Conditional pass: walk candidates in descending relaxation order
	// and keep each one only if it improves the true objective given
	// what is already selected. This uses only the relaxation's
	// ordering, and repairs the capped-sum optimism of the LP (several
	// half-selected candidates covering the same tuples).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return relax[order[a]] > relax[order[b]] })
	ev := NewEvaluator(p, make([]bool, n))
	for _, i := range order {
		if relax[i] <= 1e-6 {
			break
		}
		if ev.FlipDelta(i) < -1e-12 {
			ev.Flip(i)
		}
	}
	if ev.Total() < bestVal-1e-12 {
		copy(best, ev.Selection())
	}
	return best
}

// Local search on the true objective, shared by repair and greedy's
// warm pass: localSearchPasses bounds the sweeps, and problems with
// more than maxSwapCandidates candidates skip the O(|C|²) swap move.
const (
	localSearchPasses = 8
	maxSwapCandidates = 256
)

// repair runs local search on the true objective until a fixed point
// (at most localSearchPasses sweeps): single flips, then a swapPass.
func repair(p *Problem, sel []bool) []bool {
	n := len(sel)
	ev := NewEvaluator(p, sel)
	for pass := 0; pass < localSearchPasses; pass++ {
		improved := false
		for i := 0; i < n; i++ {
			if ev.FlipDelta(i) < -1e-12 {
				ev.Flip(i)
				improved = true
			}
		}
		improved = swapPass(ev, n, new(int)) || improved
		if !improved {
			break
		}
	}
	return ev.Selection()
}

// swapPass drops each selected candidate i in turn and adds the first
// unselected j for which the swap improves F, restoring i when none
// does. It escapes the local optimum no single flip leaves: a partial
// candidate (a projection of a gold join) blocking the full one. It
// counts FlipDelta probes in *probes, does nothing when
// n > maxSwapCandidates, and reports whether it swapped.
func swapPass(ev *Evaluator, n int, probes *int) bool {
	if n > maxSwapCandidates {
		return false
	}
	improved := false
	for i := 0; i < n; i++ {
		if !ev.Selected(i) {
			continue
		}
		dropDelta := ev.Flip(i) // tentatively drop i
		swapped := false
		for j := 0; j < n; j++ {
			if ev.Selected(j) || j == i {
				continue
			}
			*probes++
			if dropDelta+ev.FlipDelta(j) < -1e-12 {
				ev.Flip(j)
				improved, swapped = true, true
				break
			}
		}
		if !swapped {
			ev.Flip(i) // restore i
		}
	}
	return improved
}
