package core

import (
	"context"
	"time"
)

// Solve options. Every solver accepts the same functional options;
// ones a solver cannot honour are ignored (e.g. WithSeed on the
// deterministic exhaustive search).
//
// Two kinds of interruption are distinguished:
//
//   - Context cancellation (the caller's ctx is cancelled or passes
//     its deadline) is a hard stop: the solver abandons the call and
//     returns ctx.Err().
//   - WithBudget is a soft compute budget: when it runs out the
//     solver stops iterating, finishes its cheap post-processing, and
//     returns the best selection found so far with
//     Selection.Truncated set.

// SolveConfig is the resolved option set of one Solve call.
type SolveConfig struct {
	// Budget is the soft compute budget (0 = unlimited).
	Budget time.Duration
	// Progress, when non-nil, receives solver progress events.
	Progress func(Event)
	// Parallelism bounds the worker pools spawned by the call: the
	// Prepare pool and the sharded solvers' shard pool
	// (0 = GOMAXPROCS). It changes speed, never results; ADMM itself
	// always runs on the calling goroutine.
	Parallelism int
	// Seed seeds any randomised tie-breaking; the collective solver
	// uses it to perturb the ADMM initial point (0 = deterministic
	// default start).
	Seed int64
	// Warm, when non-nil, is a prior Selection to warm-start from —
	// typically the solve before an AppendTarget. The greedy solver
	// seeds its passes from the prior selection; the collective solver
	// seeds the ADMM consensus from the prior atom values. Solvers
	// without a warm path (exhaustive, independent) ignore it.
	Warm *Selection
}

// SolveOption customises one Solve call.
type SolveOption func(*SolveConfig)

// WithBudget sets a soft compute budget: once it elapses the solver
// stops iterating and returns its best selection so far, flagged
// Truncated, instead of an error. Use a context deadline for a hard
// stop.
func WithBudget(d time.Duration) SolveOption {
	return func(c *SolveConfig) { c.Budget = d }
}

// WithProgress registers a callback for progress events. It is called
// synchronously from the solver goroutine and must be fast.
func WithProgress(fn func(Event)) SolveOption {
	return func(c *SolveConfig) { c.Progress = fn }
}

// WithParallelism bounds the worker pools spawned by the call (the
// Prepare pool and the sharded solvers' shard pool). n ≤ 0 means
// GOMAXPROCS. Results are independent of the chosen parallelism.
func WithParallelism(n int) SolveOption {
	return func(c *SolveConfig) { c.Parallelism = n }
}

// WithSeed seeds randomised tie-breaking (collective solver: ADMM
// initial-point perturbation). Zero keeps the deterministic default.
func WithSeed(seed int64) SolveOption {
	return func(c *SolveConfig) { c.Seed = seed }
}

// WithWarmStart seeds the solve from a prior selection — the
// streaming re-solve path: solve, AppendTarget, then re-solve with
// the previous result. Greedy starts its add/remove passes from the
// prior selection instead of empty; collective starts ADMM at the
// prior relaxation (with explanation atoms set consistently) instead
// of the neutral 0.5 point, which converges in a fraction of the cold
// iterations on a mildly grown target. A nil prev is ignored. Prior
// selections from before one or more AppendTarget calls are valid —
// the candidate set does not change.
func WithWarmStart(prev *Selection) SolveOption {
	return func(c *SolveConfig) { c.Warm = prev }
}

// Event is one progress report from a running solver.
type Event struct {
	// Solver is the reporting solver's name.
	Solver string
	// Phase names the stage: "prepare", "admm", "round", "repair",
	// "search", "pass", "scan".
	Phase string
	// Iteration is the solver-specific work counter at the event
	// (ADMM iterations, branch-and-bound nodes, greedy passes).
	Iteration int
	// Objective is the best true objective value known at the event;
	// meaningful only when HasObjective is set (an objective of 0 is
	// legitimate, e.g. under zero weights).
	Objective float64
	// HasObjective reports whether this phase carries an objective.
	HasObjective bool
}

// run bundles the per-call state shared by all solvers: the caller's
// context, the resolved options, and the soft-budget deadline.
type run struct {
	ctx      context.Context
	cfg      SolveConfig
	solver   string
	deadline time.Time // zero when no budget
}

// newRun resolves the options of one Solve call.
func newRun(ctx context.Context, solver string, opts []SolveOption) *run {
	r := &run{ctx: ctx, solver: solver}
	for _, o := range opts {
		o(&r.cfg)
	}
	if r.cfg.Budget > 0 {
		//lint:wallclock soft-budget bookkeeping: affects only where truncation stops, which Truncated reports
		r.deadline = time.Now().Add(r.cfg.Budget)
	}
	return r
}

// err returns the caller's cancellation error, or nil. Solvers call
// it at their iteration checkpoints.
func (r *run) err() error {
	select {
	case <-r.ctx.Done():
		return r.ctx.Err()
	default:
		return nil
	}
}

// overBudget reports whether the soft budget has elapsed.
func (r *run) overBudget() bool {
	//lint:wallclock soft-budget bookkeeping: affects only where truncation stops, which Truncated reports
	return !r.deadline.IsZero() && time.Now().After(r.deadline)
}

// emit publishes a progress event if a listener is registered.
func (r *run) emit(phase string, iteration int) {
	if r.cfg.Progress == nil {
		return
	}
	r.cfg.Progress(Event{Solver: r.solver, Phase: phase, Iteration: iteration})
}

// emitObjective is emit for phases that know the best true objective.
func (r *run) emitObjective(phase string, iteration int, objective float64) {
	if r.cfg.Progress == nil {
		return
	}
	r.cfg.Progress(Event{
		Solver: r.solver, Phase: phase, Iteration: iteration,
		Objective: objective, HasObjective: true,
	})
}

// checkpoint is the shared iteration gate: err is the caller's
// cancellation (hard stop), stop an expired soft budget (truncate).
func (r *run) checkpoint() (stop bool, err error) {
	if err := r.err(); err != nil {
		return false, err
	}
	return r.overBudget(), nil
}

// prepare runs the problem's (possibly parallel) preparation under
// the call's parallelism bound and reports it as a phase. The
// preparation itself is not interruptible — it runs once per Problem
// and its result is shared across callers, so one caller's cancelled
// context must not abort it for everyone — but cancellation is
// checked before it starts and again right after, bounding the
// cancellation latency by the prepare duration.
func (r *run) prepare(p *Problem) error {
	if err := r.err(); err != nil {
		return err
	}
	r.emit("prepare", 0)
	p.PrepareN(r.cfg.Parallelism)
	if err := p.CheckFresh(); err != nil {
		// The instances were mutated directly after Prepare — the
		// evidence is stale and any result would be silently wrong.
		return err
	}
	return r.err()
}
