package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"schemamap/internal/core"
)

// DefaultTinyCap is the component size (in candidates) up to which a
// sharded solve routes the component to the exact exhaustive search
// instead of the configured inner solver. Branch and bound over ≤ 12
// candidates is at most a few thousand nodes — cheaper than an ADMM
// grounding — and exact, so tiny components never pay for an
// approximate solver.
const DefaultTinyCap = 12

// Solver wraps a registered solver into its connected-component
// sharded variant: Split the problem, solve every shard independently
// on a bounded worker pool (tiny shards exactly, large shards with the
// inner solver), and concatenate the per-shard selections. The merged
// Selection's objective is evaluated on the parent problem, so it is
// bit-identical to what an unsharded evaluation of the same selection
// reports.
//
// Options map onto shards as follows: WithParallelism bounds the
// shard worker pool (shards are born prepared, so no inner solve
// starts a pool of its own); WithBudget is a shared soft budget —
// each shard receives the time remaining when it starts, and a shard
// that starts past the deadline returns its warm/empty selection
// immediately, flagged Truncated; WithSeed is forwarded; WithWarmStart
// selections are sliced per shard by parent candidate index;
// WithProgress events are forwarded from all shards, serialised by a
// mutex. Context cancellation stops all shards promptly and Solve
// returns ctx.Err(). A shard that fails — with an error, or with a
// panic, which is recovered — cancels the remaining shards, and Solve
// returns "shard <c> (<n> candidates): <error>" (for a panic,
// "panic: <value>"). Every solve splits the problem afresh: a shard is
// a read-only view over the evidence at the time of the solve (see
// core.Problem.Subproblem).
//
// The zero value is not useful — Inner must name a registered solver.
// The registry's "sharded-greedy" and "sharded-collective" entries are
// this type with the respective inner solvers and the default tiny
// cap.
type Solver struct {
	// Inner is the registered solver name for components larger than
	// TinyCap.
	Inner string
	// TinyCap routes components with ≤ TinyCap candidates to the
	// exhaustive solver; 0 means DefaultTinyCap, negative disables the
	// routing entirely (every component uses Inner — what the
	// bit-identity differential tests use).
	TinyCap int
}

// Name implements core.Solver.
func (s Solver) Name() string { return "sharded-" + s.Inner }

// Solve implements core.Solver.
func (s Solver) Solve(ctx context.Context, p *core.Problem, options ...core.SolveOption) (*core.Selection, error) {
	var cfg core.SolveConfig
	for _, o := range options {
		o(&cfg)
	}
	inner, err := core.Get(s.Inner)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	tinyCap := s.TinyCap
	if tinyCap == 0 {
		tinyCap = DefaultTinyCap
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.PrepareN(cfg.Parallelism)
	if err := p.CheckFresh(); err != nil {
		return nil, err
	}
	start := time.Now() //lint:wallclock timing-only: feeds Selection.Elapsed and the soft budget, never the selection
	var deadline time.Time
	if cfg.Budget > 0 {
		deadline = start.Add(cfg.Budget)
	}

	shards := SplitN(p, cfg.Parallelism)

	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(shards) {
		workers = len(shards)
	}

	// Serialise progress events from concurrently solving shards; the
	// Solver interface promises synchronous callbacks.
	var progress func(core.Event)
	if cfg.Progress != nil {
		var mu sync.Mutex
		userProgress := cfg.Progress
		progress = func(e core.Event) {
			mu.Lock()
			defer mu.Unlock()
			userProgress(e)
		}
	}

	type shardResult struct {
		sel *core.Selection
		err error
	}
	results := make([]shardResult, len(shards))
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				sel, err := s.solveShard(cctx, shards[c], inner, tinyCap, deadline, &cfg, progress)
				results[c] = shardResult{sel: sel, err: err}
				if err != nil {
					cancel() // fail fast: stop the remaining shards
				}
			}
		}()
	}
feed:
	for c := range shards {
		select {
		case next <- c:
		case <-cctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()

	// A shard error (or the caller's cancellation) aborts the whole
	// solve: a partial merge would silently report a wrong objective.
	// The failing shard's error is reported, not the cancellations it
	// caused in its siblings.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var cancelled error
	for c := range results {
		if err := results[c].err; err != nil {
			err = fmt.Errorf("shard %d (%d candidates): %w", c, len(shards[c].Candidates), err)
			if !errors.Is(err, context.Canceled) {
				return nil, err
			}
			if cancelled == nil {
				cancelled = err
			}
		}
	}
	if cancelled != nil {
		return nil, cancelled
	}

	// Merge: scatter each shard's selection back to parent indices.
	chosen := make([]bool, p.NumCandidates())
	iterations := 0
	truncated, unconverged := false, false
	var relax []float64
	for c, sh := range shards {
		res := results[c]
		for k, ci := range sh.Candidates {
			chosen[ci] = res.sel.Chosen[k]
		}
		iterations += res.sel.Iterations
		truncated = truncated || res.sel.Truncated
		unconverged = unconverged || res.sel.Unconverged
		if len(res.sel.Relaxation) == len(sh.Candidates) && len(sh.Candidates) > 0 {
			if relax == nil {
				relax = make([]float64, p.NumCandidates())
			}
			for k, ci := range sh.Candidates {
				relax[ci] = res.sel.Relaxation[k]
			}
		}
	}

	return &core.Selection{
		Chosen: chosen,
		// Evaluated on the parent problem: bit-identical to the
		// unsharded evaluation of the merged selection by construction.
		Objective:   p.Objective(chosen),
		Solver:      s.Name(),
		Runtime:     time.Since(start),
		Iterations:  iterations,
		Truncated:   truncated,
		Unconverged: unconverged,
		Relaxation:  relax,
	}, nil
}

// solveShard runs one shard. Candidate-free shards (uncovered tuples)
// have exactly one selection — the empty one — so no solver runs. A
// panic in the shard's solve is returned as a "panic: <value>" error,
// so one failing shard aborts the sharded solve instead of the process.
func (s Solver) solveShard(ctx context.Context, sh Shard, inner core.Solver, tinyCap int, deadline time.Time, cfg *core.SolveConfig, progress func(core.Event)) (sel *core.Selection, err error) {
	defer func() {
		if r := recover(); r != nil {
			sel, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	if len(sh.Candidates) == 0 {
		return &core.Selection{Chosen: []bool{}}, nil
	}
	warm := sliceWarm(cfg.Warm, sh.Candidates)
	//lint:wallclock soft-budget bookkeeping: affects only where truncation stops, which Truncated reports
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		// The shared budget ran out before this shard started: return
		// the best selection known without solving (the warm one, or
		// empty), truncated — the soft-budget contract.
		chosen := make([]bool, len(sh.Candidates))
		if warm != nil {
			copy(chosen, warm.Chosen)
		}
		return &core.Selection{Chosen: chosen, Truncated: true}, nil
	}
	solver := inner
	if tinyCap > 0 && len(sh.Candidates) <= tinyCap {
		solver = core.ExhaustiveSolver{}
	}
	var opts []core.SolveOption
	if !deadline.IsZero() {
		opts = append(opts, core.WithBudget(time.Until(deadline)))
	}
	if cfg.Seed != 0 {
		opts = append(opts, core.WithSeed(cfg.Seed))
	}
	if warm != nil {
		opts = append(opts, core.WithWarmStart(warm))
	}
	if progress != nil {
		opts = append(opts, core.WithProgress(progress))
	}
	return solver.Solve(ctx, sh.Problem, opts...)
}

// sliceWarm projects a parent warm-start selection onto a shard's
// candidates. The relaxation is sliced alongside when its length
// matches the parent candidate count.
func sliceWarm(w *core.Selection, candIdx []int) *core.Selection {
	if w == nil {
		return nil
	}
	sub := &core.Selection{Chosen: make([]bool, len(candIdx))}
	for k, ci := range candIdx {
		if ci < len(w.Chosen) {
			sub.Chosen[k] = w.Chosen[ci]
		}
	}
	if len(w.Relaxation) > 0 {
		sub.Relaxation = make([]float64, len(candIdx))
		for k, ci := range candIdx {
			if ci < len(w.Relaxation) {
				sub.Relaxation[k] = w.Relaxation[ci]
			}
		}
	}
	return sub
}

func init() {
	core.Register("sharded-greedy", func() core.Solver { return Solver{Inner: "greedy"} })
	core.Register("sharded-collective", func() core.Solver { return Solver{Inner: "collective"} })
}

// Wrap returns the sharded variant of a registered base solver name —
// the serving layer's per-request "sharded" flag. Wrapping an already
// sharded name is an error.
func Wrap(name string) (core.Solver, error) {
	if _, err := core.Get(name); err != nil {
		return nil, err
	}
	if len(name) > len("sharded-") && name[:len("sharded-")] == "sharded-" {
		return nil, fmt.Errorf("shard: %q is already sharded", name)
	}
	return Solver{Inner: name}, nil
}
