package main

// The two library workloads: one client calling the core API directly,
// every op a cold NewProblem + PrepareN + Solve.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"

	"schemamap/internal/bench"
	"schemamap/internal/core"
	"schemamap/internal/cover"
	"schemamap/internal/ibench"
	"schemamap/internal/shard"
)

// library is a cold one-shot select workload over fixed scenarios.
type library struct {
	name        string
	parallelism int
	solver      core.Solver
	sharded     bool
	seeds       []int64
	scenarios   []*ibench.Scenario
	corrupt     bool

	refs   []reference // per scenario, set by references
	traced samples     // per-layer observations of the traced phase
	// shardMismatch counts traced ops whose shard replay did not
	// reproduce the sharded solver's selection.
	shardMismatch int
	gcPauseNs     uint64
}

// reference is the expected output of an op.
type reference struct {
	objective float64
	selected  []int
}

// coldScenarios is the number of M scenarios cold-select cycles over.
// Solve cost differs up to fivefold between M scenarios (ADMM
// iteration counts), so a run draws many of them: the medians then
// describe the scenario family rather than the few scenarios one seed
// happens to generate.
const coldScenarios = 128

// newColdSelect sets up cold-select: noisy M-scale scenarios, serial
// prepare and a collective solve per op.
func newColdSelect(cfg config) (workload, error) {
	spec, err := bench.SpecFor("M")
	if err != nil {
		return nil, err
	}
	w := &library{name: "cold-select", parallelism: 1, solver: core.CollectiveSolver{}, corrupt: cfg.corrupt}
	for k := 0; k < coldScenarios; k++ {
		w.seeds = append(w.seeds, deriveSeed(cfg.seed, w.name, k))
	}
	w.scenarios, err = parallel(coldScenarios, func(k int) (*ibench.Scenario, error) {
		s := spec
		s.Seed = w.seeds[k]
		sc, err := ibench.Generate(s.Config())
		if err != nil {
			return nil, fmt.Errorf("generate scenario %d: %w", k, err)
		}
		return sc, nil
	})
	if err != nil {
		return nil, err
	}
	return w, w.warmUp()
}

// newShardedThroughput sets up sharded-throughput: one noise-free
// 70-primitive scenario (the L throughput family at a tenth of its
// size), prepared and solved sharded at parallelism 2 per op.
func newShardedThroughput(cfg config) (workload, error) {
	w := &library{name: "sharded-throughput", parallelism: 2, solver: shard.Solver{Inner: "collective"}, sharded: true, corrupt: cfg.corrupt}
	gen := ibench.DefaultConfig(70, deriveSeed(cfg.seed, w.name, 0))
	gen.Rows = 100
	sc, err := ibench.Generate(gen)
	if err != nil {
		return nil, fmt.Errorf("generate scenario: %w", err)
	}
	w.seeds = []int64{gen.Seed}
	w.scenarios = []*ibench.Scenario{sc}
	return w, w.warmUp()
}

// warmUp runs the one untimed op of the set-up.
func (w *library) warmUp() error {
	if o := w.op(0, false); o.Err != "" {
		return fmt.Errorf("warm-up op: %s", o.Err)
	}
	return nil
}

func (w *library) run(st stopper, traced bool) []op {
	if traced {
		w.traced = samples{}
		w.shardMismatch = 0
	}
	pause := gcPauseTotal()
	var ops []op
	for i := 0; st.more(i); i++ {
		ops = append(ops, w.op(i, traced))
	}
	w.gcPauseNs = gcPauseTotal() - pause
	return ops
}

// op runs op i: a fresh problem over scenario i mod len, prepared and
// solved cold. Traced ops also replay Prepare's cover calls (before
// the op on even i, after it on odd i, so cache warmth favours
// neither side) and, on the sharded workload, the shard routing.
func (w *library) op(i int, traced bool) op {
	k := i % len(w.scenarios)
	sc := w.scenarios[k]
	o := op{Kind: "select", Input: k}
	var prep span
	if traced && i%2 == 0 {
		prep = w.replayCover(sc)
	}

	ctx := context.Background()
	var p *core.Problem
	var sel *core.Selection
	var err error
	prepare := measure(traced, func() {
		p = core.NewProblem(sc.I, sc.J, sc.Candidates)
		p.PrepareN(w.parallelism)
	})
	solve := measure(traced, func() {
		sel, err = w.solver.Solve(ctx, p, core.WithParallelism(w.parallelism))
	})
	o.mutateMs, o.solveMs = prepare.ms, solve.ms
	o.ms = prepare.ms + solve.ms
	o.Tuples = p.NumLiveTuples()
	if err != nil {
		o.Err = err.Error()
		return o
	}
	o.Objective = sel.Objective.Total()
	o.Selected = sel.Indices()
	o.Iters = sel.Iterations
	o.Truncated = sel.Truncated

	if !traced {
		return o
	}
	if i%2 == 1 {
		prep = w.replayCover(sc)
	}
	t := w.traced
	t.record("core.prepare", prepare, true)
	t.record("core.solve", solve, true)
	t.add("trace.cover_sum_ratio", prep.ms/prepare.ms)
	pairs := 0
	for _, a := range p.Analyses() {
		pairs += len(a.Pairs)
	}
	t.add("cover.pairs", float64(pairs))
	if w.sharded {
		w.replayShards(ctx, p, sel)
	} else {
		t.add("psl.admm_iters", float64(sel.Iterations))
		if sel.Iterations > 0 {
			t.add("core.solve_us_per_iter", solve.ms*1e3/float64(sel.Iterations))
		}
	}
	return o
}

// replayCover re-runs Prepare's three public cover calls on the
// scenario, timing each, and returns their summed span.
func (w *library) replayCover(sc *ibench.Scenario) span {
	var jidx *cover.JIndex
	var analyses []cover.Analysis
	index := measure(false, func() { jidx = cover.IndexJ(sc.J) })
	analyze := measure(false, func() {
		analyses = cover.AnalyzeN(sc.I, jidx, sc.Candidates, cover.DefaultOptions(), w.parallelism)
	})
	incidence := measure(false, func() { cover.BuildIncidence(jidx.Len(), analyses) })
	w.traced.add("cover.index_ms", index.ms)
	w.traced.add("cover.analyze_ms", analyze.ms)
	w.traced.add("cover.incidence_ms", incidence.ms)
	return span{ms: index.ms + analyze.ms + incidence.ms}
}

// replayShards repeats the sharded solve on the prepared problem the
// way shard.Solver routes it — split, each shard solved by the
// exhaustive search up to shard.DefaultTinyCap candidates and by the
// collective solver above, candidate-free shards skipped, selections
// merged and evaluated on the parent — timing each step. Shards run
// one after another here, so the inner sum is the solve work and the
// inner max the longest shard.
func (w *library) replayShards(ctx context.Context, p *core.Problem, sel *core.Selection) {
	t := w.traced
	var shards []shard.Shard
	split := measure(true, func() { shards = shard.SplitN(p, w.parallelism) })
	t.record("shard.split", split, true)
	st := shard.StatsOf(shards)
	t.add("shard.shards", float64(st.Shards))
	t.add("shard.largest_candidates", float64(st.LargestCandidates))
	t.add("shard.largest_tuples", float64(st.LargestTuples))

	workers := min(w.parallelism, len(shards))
	innerPar := w.parallelism
	if workers > 1 {
		innerPar = 1
	}
	chosen := make([]bool, p.NumCandidates())
	var sum, longest float64
	admm := 0
	for _, sh := range shards {
		if len(sh.Candidates) == 0 {
			continue
		}
		var solver core.Solver = core.CollectiveSolver{}
		if len(sh.Candidates) <= shard.DefaultTinyCap {
			solver = core.ExhaustiveSolver{}
		}
		var sub *core.Selection
		var err error
		d := measure(false, func() { sub, err = solver.Solve(ctx, sh.Problem, core.WithParallelism(innerPar)) })
		if err != nil {
			w.shardMismatch++
			return
		}
		sum += d.ms
		longest = math.Max(longest, d.ms)
		if _, ok := solver.(core.CollectiveSolver); ok {
			admm += sub.Iterations
		}
		for k, ci := range sh.Candidates {
			chosen[ci] = sub.Chosen[k]
		}
	}
	var merged core.Breakdown
	merge := measure(false, func() { merged = p.Objective(chosen) })
	t.add("shard.inner_solve_sum_ms", sum)
	t.add("shard.inner_solve_max_ms", longest)
	t.add("shard.merge_ms", merge.ms)
	t.add("psl.admm_iters", float64(admm))
	if merged.Total() != sel.Objective.Total() || !slices.Equal(chosen, sel.Chosen) {
		w.shardMismatch++
	}
}

// references solves every scenario once more, cold, after the timed
// phase, and checks that the solver's reported objective is the
// evaluation of its own selection.
func (w *library) references() error {
	refs, err := parallel(len(w.scenarios), func(k int) (reference, error) {
		sc := w.scenarios[k]
		p := core.NewProblem(sc.I, sc.J, sc.Candidates)
		p.PrepareN(w.parallelism)
		sel, err := w.solver.Solve(context.Background(), p, core.WithParallelism(w.parallelism))
		if err != nil {
			return reference{}, fmt.Errorf("scenario %d: %w", k, err)
		}
		if got := p.Objective(sel.Chosen).Total(); got != sel.Objective.Total() {
			return reference{}, fmt.Errorf("scenario %d: reported objective %v, evaluated %v", k, sel.Objective.Total(), got)
		}
		ref := reference{objective: sel.Objective.Total(), selected: sel.Indices()}
		if w.corrupt {
			ref.objective = math.Nextafter(ref.objective, math.Inf(1))
		}
		return ref, nil
	})
	w.refs = refs
	return err
}

func (w *library) check(o *op) error {
	return checkSolve(o, w.refs[o.Input])
}

// checkSolve compares a solve's output with its reference, bit for
// bit.
func checkSolve(o *op, ref reference) error {
	if o.Truncated {
		return fmt.Errorf("solve truncated")
	}
	if math.Float64bits(o.Objective) != math.Float64bits(ref.objective) {
		return fmt.Errorf("objective %v, reference %v", o.Objective, ref.objective)
	}
	if !slices.Equal(o.Selected, ref.selected) {
		return fmt.Errorf("selected %v, reference %v", o.Selected, ref.selected)
	}
	return nil
}

func (w *library) layers(traced []op) (map[string]float64, []string) {
	values := w.traced.medians()
	values["gc.pause_ms"] = float64(w.gcPauseNs) / 1e6 / float64(max(len(traced), 1))
	var bad []string
	if r := values["trace.cover_sum_ratio"]; math.Abs(r-1) > coverTolerance {
		bad = append(bad, fmt.Sprintf("cover replay spans sum to %.3f of core.prepare_ms (tolerance ±%.2f)", r, coverTolerance))
	}
	if w.shardMismatch > 0 {
		bad = append(bad, fmt.Sprintf("%d shard replays did not reproduce the sharded selection", w.shardMismatch))
	}
	return values, bad
}

func (w *library) describe() map[string]any {
	var tuples, cands []int
	for _, sc := range w.scenarios {
		tuples = append(tuples, sc.J.Len())
		cands = append(cands, len(sc.Candidates))
	}
	return map[string]any{
		"clients":       1,
		"parallelism":   w.parallelism,
		"solver":        w.solver.Name(),
		"scenario_seed": w.seeds,
		"target_tuples": tuples,
		"candidates":    cands,
	}
}

func (w *library) close() {}

func gcPauseTotal() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}
