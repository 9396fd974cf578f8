package bench

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"schemamap/internal/core"
	"schemamap/internal/data"
	"schemamap/internal/ibench"
	"schemamap/internal/quality"
	"schemamap/internal/shard"
	"schemamap/internal/tgd"
)

// The trace kinds Replay accepts.
const (
	traceThroughput = "throughput" // zero steps on the noise-free L/XL specs
	traceSolve      = "solve"      // zero steps: cold Prepare + solve
	traceStream     = "stream"     // append-only steps (ibench.SplitTarget)
	traceChurn      = "churn"      // appends, removals, candidate adds (ibench.SplitChurn)
	traceServe      = "serve"      // stream and solve traces over HTTP
)

// Trace shapes. They are fixed so that every recorded row of a kind
// is comparable with every other.
const (
	streamBatches = 8
	churnSteps    = 6
)

// Traces lists the trace kinds in the order a multi-trace run should
// replay them: throughput first, because its peak RSS is a process
// high-water mark that any earlier trace would inflate.
func Traces() []string {
	return []string{traceThroughput, traceSolve, traceStream, traceChurn, traceServe}
}

// defaultSolvers is the solver set a trace kind runs when Options
// names none: the warm-path solvers for stepped and served traces,
// the sharded solvers for throughput, every registered one otherwise.
func defaultSolvers(kind string) []string {
	switch kind {
	case traceStream, traceChurn, traceServe:
		return []string{"greedy", "collective"}
	case traceThroughput:
		return []string{"sharded-greedy", "sharded-collective"}
	}
	return core.Names()
}

// Row is one (trace, solver, scale) measurement. Fields a trace kind
// does not measure are omitted from the JSON.
type Row struct {
	Trace       string `json:"trace"`
	Solver      string `json:"solver"`
	Scale       string `json:"scale"`
	Seed        int64  `json:"seed"`
	Parallelism int    `json:"parallelism"`
	// Skipped carries the reason a solver declined the trace (e.g.
	// exhaustive search above quality.ExhaustiveCellCap candidates);
	// all measurements are zero then.
	Skipped string `json:"skipped,omitempty"`

	// Size after the last step, and the trace's shape.
	Candidates      int `json:"candidates,omitempty"`
	JTuples         int `json:"jTuples,omitempty"`
	Steps           int `json:"steps,omitempty"`
	InitialTuples   int `json:"initialTuples,omitempty"`
	AppendedTuples  int `json:"appendedTuples,omitempty"`
	RemovedTuples   int `json:"removedTuples,omitempty"`
	CandidatesAdded int `json:"candidatesAdded,omitempty"`

	// Cold Prepare + solve of the final state: the measurement of a
	// zero-step trace, the reference of a stepped one.
	PrepareMillis float64 `json:"prepareMillis,omitempty"`
	SolveMillis   float64 `json:"solveMillis,omitempty"`
	Iterations    int     `json:"iterations,omitempty"`
	Objective     float64 `json:"objective,omitempty"`
	GoldObjective float64 `json:"goldObjective,omitempty"`
	Truncated     bool    `json:"truncated,omitempty"`
	Unconverged   bool    `json:"unconverged,omitempty"`
	Allocs        uint64  `json:"allocs,omitempty"`
	AllocBytes    uint64  `json:"allocBytes,omitempty"`

	// Warm replays of a stepped trace: each step's best over the timed
	// replays, averaged over the steps, the total warm iterations, the
	// final warm objective, and the differential results.
	MutateMillis      float64 `json:"mutateMillis,omitempty"`
	WarmSolveMillis   float64 `json:"warmSolveMillis,omitempty"`
	Speedup           float64 `json:"speedup,omitempty"`
	WarmIterations    int     `json:"warmIterations,omitempty"`
	WarmObjective     float64 `json:"warmObjective,omitempty"`
	EvidenceIdentical bool    `json:"evidenceIdentical,omitempty"`
	WarmReproducible  bool    `json:"warmReproducible,omitempty"`

	// Throughput: decomposition shape, rates and memory.
	Shards                 int     `json:"shards,omitempty"`
	UncoveredTuples        int     `json:"uncoveredTuples,omitempty"`
	LargestShardCandidates int     `json:"largestShardCandidates,omitempty"`
	LargestShardTuples     int     `json:"largestShardTuples,omitempty"`
	GenerateMillis         float64 `json:"generateMillis,omitempty"`
	TuplesPerSec           float64 `json:"tuplesPerSec,omitempty"`
	NormalizedThroughput   float64 `json:"normalizedThroughput,omitempty"`
	PeakRSSMB              float64 `json:"peakRSSMB,omitempty"`

	// Serve: load shape, request counts, server cache, latencies.
	RecordedOnly    bool    `json:"recordedOnly,omitempty"`
	Sessions        int     `json:"sessions,omitempty"`
	Streamers       int     `json:"streamers,omitempty"`
	Variants        int     `json:"variants,omitempty"`
	Solves          int     `json:"solves,omitempty"`
	Appends         int     `json:"appends,omitempty"`
	Errors          int     `json:"errors,omitempty"`
	CacheHits       float64 `json:"cacheHits,omitempty"`
	CacheMisses     float64 `json:"cacheMisses,omitempty"`
	CacheHitRatio   float64 `json:"cacheHitRatio,omitempty"`
	Forks           float64 `json:"forks,omitempty"`
	P50CreateMillis float64 `json:"p50CreateMillis,omitempty"`
	P99CreateMillis float64 `json:"p99CreateMillis,omitempty"`
	P50SolveMillis  float64 `json:"p50SolveMillis,omitempty"`
	P99SolveMillis  float64 `json:"p99SolveMillis,omitempty"`
	P50AppendMillis float64 `json:"p50AppendMillis,omitempty"`
	P99AppendMillis float64 `json:"p99AppendMillis,omitempty"`
}

// String renders the row for progress output.
func (r Row) String() string {
	head := fmt.Sprintf("%-10s %s/%-18s", r.Trace, r.Scale, r.Solver)
	switch {
	case r.Skipped != "":
		return head + " skipped: " + r.Skipped
	case r.Trace == traceServe:
		return fmt.Sprintf("%s sessions=%d solves=%d appends=%d errors=%d hit=%0.2f create p50=%6.2fms p99=%7.2fms solve p50=%6.2fms p99=%7.2fms",
			head, r.Sessions, r.Solves, r.Appends, r.Errors, r.CacheHitRatio,
			r.P50CreateMillis, r.P99CreateMillis, r.P50SolveMillis, r.P99SolveMillis)
	case r.Steps > 0:
		return fmt.Sprintf("%s steps=%d mutate=%6.2fms warm=%8.2fms cold=%8.2fms+%8.2fms speedup=%5.1fx iters cold=%d warm=%.1f evidence=%v",
			head, r.Steps, r.MutateMillis, r.WarmSolveMillis, r.PrepareMillis, r.SolveMillis,
			r.Speedup, r.Iterations, float64(r.WarmIterations)/float64(r.Steps), r.EvidenceIdentical && r.WarmReproducible)
	case r.Trace == traceThroughput:
		return fmt.Sprintf("%s J=%d shards=%d prepare=%8.0fms solve=%8.0fms tps=%8.0f norm=%6.1f rss=%.0fMB",
			head, r.JTuples, r.Shards, r.PrepareMillis, r.SolveMillis, r.TuplesPerSec, r.NormalizedThroughput, r.PeakRSSMB)
	}
	return fmt.Sprintf("%s prepare=%8.1fms solve=%9.1fms iter=%6d F=%.4g allocs=%d",
		head, r.PrepareMillis, r.SolveMillis, r.Iterations, r.Objective, r.Allocs)
}

// Options configure a Replay.
type Options struct {
	// Solvers to run (nil = the trace kind's default set).
	Solvers []string
	// Parallelism is passed to every prepare and solve (0 =
	// GOMAXPROCS).
	Parallelism int
	// Progress, when non-nil, receives one line per row.
	Progress func(string)
}

// Replay replays one trace kind at each spec for every solver and
// returns one row per (spec, solver) — plus the recorded-only corpus
// rows of the serve trace. An unknown kind or solver is an error; a
// solver declining a trace is a skipped row.
func Replay(ctx context.Context, kind string, specs []Spec, opt Options) ([]Row, error) {
	solvers := opt.Solvers
	if len(solvers) == 0 {
		solvers = defaultSolvers(kind)
	}
	for _, name := range solvers {
		if _, err := core.Get(name); err != nil {
			return nil, err
		}
	}
	var rows []Row
	emit := func(r Row) {
		rows = append(rows, r)
		if opt.Progress != nil {
			opt.Progress(r.String())
		}
	}
	switch kind {
	case traceServe:
		return rows, replayServe(ctx, specs, solvers, opt.Parallelism, emit)
	case traceThroughput, traceSolve, traceStream, traceChurn:
	default:
		return nil, fmt.Errorf("bench: unknown trace %q (have %v)", kind, Traces())
	}
	var calib time.Duration
	if kind == traceThroughput {
		calib = Calibrate()
	}
	for _, spec := range specs {
		tr, err := newTrace(kind, spec)
		if err != nil {
			return nil, err
		}
		for _, name := range solvers {
			row, err := tr.replay(ctx, core.MustGet(name), opt.Parallelism)
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				row = tr.row(name, opt.Parallelism)
				row.Skipped = err.Error()
			}
			if kind == traceThroughput && row.Skipped == "" {
				row.TuplesPerSec = float64(row.JTuples) / ((row.PrepareMillis + row.SolveMillis) / 1e3)
				row.NormalizedThroughput = row.TuplesPerSec * calib.Seconds()
				row.PeakRSSMB = peakRSSMB()
			}
			emit(row)
		}
	}
	return rows, nil
}

// trace is one replayable workload: a scenario, the target and
// candidates a session opens on, and the steps that mutate it.
type trace struct {
	kind       string
	spec       Spec
	sc         *ibench.Scenario
	initial    *data.Instance
	candidates tgd.Mapping
	steps      []ibench.ChurnStep
	// final, when non-nil, is the target the cold reference prepares
	// (a stream trace's generated J, in generated order); nil rebuilds
	// it from the replayed problem's live tuples.
	final    *data.Instance
	generate time.Duration
}

// newTrace generates the spec's scenario and deals it into a trace of
// the given kind.
func newTrace(kind string, spec Spec) (*trace, error) {
	start := time.Now()
	sc, err := ibench.Generate(spec.Config())
	if err != nil {
		return nil, fmt.Errorf("bench: %s scale %s: %w", kind, spec.Name, err)
	}
	tr := &trace{kind: kind, spec: spec, sc: sc, initial: sc.J, candidates: sc.Candidates, generate: time.Since(start)}
	switch kind {
	case traceStream:
		return tr.streamed(streamBatches)
	case traceChurn:
		churn, err := ibench.SplitChurn(sc, ibench.ChurnConfig{
			Steps: churnSteps,
			Seed:  spec.Seed + 2, // distinct from the streaming shuffle
		})
		if err != nil {
			return nil, err
		}
		tr.initial, tr.candidates, tr.steps = churn.Initial, churn.Candidates, churn.Steps
	}
	return tr, nil
}

// streamed returns the append-only trace of tr's scenario: its target
// dealt into an initial half and batches append steps.
func (tr *trace) streamed(batches int) (*trace, error) {
	stream, err := ibench.SplitTarget(tr.sc, ibench.StreamConfig{
		Batches: batches,
		Seed:    tr.spec.Seed + 1, // interleave relations in arrival order
	})
	if err != nil {
		return nil, err
	}
	out := *tr
	out.kind, out.initial, out.final = traceStream, stream.Initial, tr.sc.J
	out.steps = make([]ibench.ChurnStep, len(stream.Batches))
	for i, b := range stream.Batches {
		out.steps[i].Append = b
	}
	return &out, nil
}

// row returns the row identity and trace shape.
func (tr *trace) row(solver string, parallelism int) Row {
	r := Row{
		Trace: tr.kind, Solver: solver, Scale: tr.spec.Name, Seed: tr.spec.Seed, Parallelism: parallelism,
		Steps: len(tr.steps),
	}
	if len(tr.steps) > 0 {
		r.InitialTuples = tr.initial.Len()
	}
	for _, st := range tr.steps {
		r.AppendedTuples += len(st.Append)
		r.RemovedTuples += len(st.Remove)
		r.CandidatesAdded += len(st.AddCandidates)
	}
	return r
}

// replay measures one solver on the trace in-process. A zero-step
// trace is a cold Prepare + solve. A stepped trace is replayed once
// untimed, checking every step's evidence against a cold Prepare, and
// then timingTrials times, timing each step's mutation and warm
// re-solve next to a cold Prepare + solve of the final state.
func (tr *trace) replay(ctx context.Context, solver core.Solver, par int) (Row, error) {
	row := tr.row(solver.Name(), par)
	if solver.Name() == "exhaustive" && len(tr.candidates) > quality.ExhaustiveCellCap {
		row.Skipped = fmt.Sprintf("candidate count %d exceeds deterministic cap %d", len(tr.candidates), quality.ExhaustiveCellCap)
		return row, nil
	}
	opts := []core.SolveOption{core.WithParallelism(par)}
	if len(tr.steps) == 0 {
		// Throughput prepares and solves once and skips the gold
		// objective: each would allocate and lift the peak RSS the row
		// records. A solve row's Prepare is best-of-3, like the stream
		// rows' cold reference, since the prepare gate reads it.
		tput, trials := tr.kind == traceThroughput, 3
		if tput {
			trials = 1
		}
		p, prepare := coldPrepare(trials, par, func() *core.Problem { return core.NewProblem(tr.sc.I, tr.initial, tr.candidates) })
		if tput {
			st := shard.StatsOf(shard.SplitN(p, par))
			row.Shards, row.UncoveredTuples = st.Shards, st.UncoveredTuples
			row.LargestShardCandidates, row.LargestShardTuples = st.LargestCandidates, st.LargestTuples
			row.GenerateMillis = millis(tr.generate)
		}
		if err := row.coldSolve(ctx, solver, opts, p, prepare, !tput); err != nil {
			return row, err
		}
		row.Candidates, row.JTuples = len(tr.candidates), tr.initial.Len()
		if !tput {
			row.GoldObjective = p.Objective(tr.sc.GoldSelection()).Total()
		}
		return row, nil
	}

	// Check replay, untimed: every step's evidence against a cold
	// Prepare. Its final state is the cold reference's, whose solve
	// records the row's cold outcome.
	row.EvidenceIdentical, row.WarmReproducible = true, true
	final, prev, err := tr.open(ctx, solver, opts, par)
	if err != nil {
		return row, err
	}
	_, _, sels, err := tr.run(ctx, solver, opts, final, prev, func(int, *core.Selection) {
		c := coldOf(final)
		c.PrepareN(par)
		row.EvidenceIdentical = row.EvidenceIdentical && EvidenceIdentical(final, c)
	})
	if err != nil {
		return row, err
	}
	ref := tr.coldOfFinal(final)
	ref.PrepareN(par)
	if err := row.coldSolve(ctx, solver, opts, ref, 0, false); err != nil {
		return row, err
	}
	for _, sel := range sels {
		row.WarmIterations += sel.Iterations
	}
	row.WarmObjective = sels[len(sels)-1].Objective.Total()
	row.Candidates, row.JTuples = final.NumCandidates(), final.NumLiveTuples()

	// Timed trials: fresh replays whose warm objectives must reproduce
	// the check replay's, each step followed, outside its timers, by a
	// cold Prepare + solve of the final state on a fresh problem. Every
	// phase is timed from a fresh GC, and each side keeps each step's
	// best over the trials, averaged over the steps, so a slow moment
	// of a shared host moves both sides or neither.
	var mutates, warms, prepares, solves [][]time.Duration
	for trial := 0; trial < timingTrials; trial++ {
		p, prev, err := tr.open(ctx, solver, opts, par)
		if err != nil {
			return row, err
		}
		var prepare, solve []time.Duration
		var coldErr error
		mutate, warm, s, err := tr.run(ctx, solver, opts, p, prev, func(int, *core.Selection) {
			c := tr.coldOfFinal(final)
			prepare = append(prepare, timed(func() { c.PrepareN(par) }))
			var err error
			solve = append(solve, timed(func() { _, err = solver.Solve(ctx, c, opts...) }))
			coldErr = cmp.Or(coldErr, err)
		})
		if err = cmp.Or(err, coldErr); err != nil {
			return row, err
		}
		for i, sel := range s {
			row.WarmReproducible = row.WarmReproducible && sel.Objective.Total() == sels[i].Objective.Total()
		}
		mutates, warms = append(mutates, mutate), append(warms, warm)
		prepares, solves = append(prepares, prepare), append(solves, solve)
	}
	row.setTimes(mutates, warms, prepares, solves)
	return row, nil
}

// coldOfFinal returns an unprepared problem of the final state of p, a
// replay of the trace: a stream trace's generated target in generated
// order, or else p's live tuples.
func (tr *trace) coldOfFinal(p *core.Problem) *core.Problem {
	if tr.final != nil {
		return core.NewProblem(tr.sc.I, tr.final.Clone(), p.Candidates)
	}
	return coldOf(p)
}

// open builds the trace's initial state as a streaming-prepared
// problem and solves it cold, the warm start of the first step.
func (tr *trace) open(ctx context.Context, solver core.Solver, opts []core.SolveOption, par int) (*core.Problem, *core.Selection, error) {
	p := core.NewProblem(tr.sc.I, tr.initial.Clone(), append(tr.candidates[:0:0], tr.candidates...))
	p.PrepareStreaming(par)
	sel, err := solver.Solve(ctx, p, opts...)
	return p, sel, err
}

// run replays the steps on p, each mutation followed by a re-solve
// warm-started from the previous selection, and returns each step's
// mutation and solve times, each timed from a fresh GC, and every
// step's selection. after, when non-nil, runs outside the timed
// sections after each step.
func (tr *trace) run(ctx context.Context, solver core.Solver, opts []core.SolveOption, p *core.Problem, prev *core.Selection, after func(int, *core.Selection)) (mutate, warm []time.Duration, sels []*core.Selection, err error) {
	for i, st := range tr.steps {
		mutate = append(mutate, timed(func() { err = apply(p, st) }))
		if err != nil {
			return nil, nil, nil, err
		}
		var sel *core.Selection
		warm = append(warm, timed(func() { sel, err = solver.Solve(ctx, p, append(opts, core.WithWarmStart(prev))...) }))
		if err != nil {
			return nil, nil, nil, err
		}
		sels = append(sels, sel)
		prev = sel
		if after != nil {
			after(i, sel)
		}
	}
	return mutate, warm, sels, nil
}

// timingTrials is the number of timed replays of a stepped trace.
const timingTrials = 3

// timed runs f from a fresh GC, so that every timed phase starts from
// the same collector state, and returns its wall time.
func timed(f func()) time.Duration {
	runtime.GC()
	start := time.Now()
	f()
	return time.Since(start)
}

// setTimes records a stepped row's times from its timed trials
// (mutate[k][i] is trial k's mutation of step i, prepare[k][i] the
// cold Prepare timed after it, and so on): each phase's best per step
// over the trials, averaged over the steps, and the ratio of the cold
// Prepare plus solve to the mutation plus warm solve.
func (row *Row) setTimes(mutate, warm, prepare, solve [][]time.Duration) {
	row.MutateMillis, row.WarmSolveMillis = meanOfBest(mutate), meanOfBest(warm)
	row.PrepareMillis, row.SolveMillis = meanOfBest(prepare), meanOfBest(solve)
	if perStep := row.MutateMillis + row.WarmSolveMillis; perStep > 0 {
		row.Speedup = (row.PrepareMillis + row.SolveMillis) / perStep
	}
}

// meanOfBest returns, in milliseconds, the mean over steps of each
// step's fastest time across the trials.
func meanOfBest(trials [][]time.Duration) float64 {
	var sum time.Duration
	for i := range trials[0] {
		best := trials[0][i]
		for _, times := range trials[1:] {
			best = min(best, times[i])
		}
		sum += best
	}
	return millis(sum) / float64(len(trials[0]))
}

// apply runs one step's mutations: append, then remove, then add
// candidates.
func apply(p *core.Problem, st ibench.ChurnStep) error {
	if len(st.Append) > 0 {
		if _, err := p.AppendTarget(st.Append); err != nil {
			return err
		}
	}
	if len(st.Remove) > 0 {
		if _, err := p.RemoveTarget(st.Remove); err != nil {
			return err
		}
	}
	if len(st.AddCandidates) > 0 {
		if _, err := p.AddCandidates(st.AddCandidates); err != nil {
			return err
		}
	}
	return nil
}

// coldPrepare prepares trials fresh problems from build and returns
// the last with the fastest Prepare time.
func coldPrepare(trials, par int, build func() *core.Problem) (*core.Problem, time.Duration) {
	var p *core.Problem
	var best time.Duration
	for t := 0; t < trials; t++ {
		p = build()
		start := time.Now()
		p.PrepareN(par)
		if d := time.Since(start); t == 0 || d < best {
			best = d
		}
	}
	return p, best
}

// coldSolve solves the prepared problem and records the cold fields.
// With repeat, solves under 250 ms are re-run (min wall) so gates
// compare a stable number instead of scheduler noise; the solvers are
// deterministic on a prepared problem, so the selection is unchanged.
func (row *Row) coldSolve(ctx context.Context, solver core.Solver, opts []core.SolveOption, p *core.Problem, prepare time.Duration, repeat bool) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	sel, err := solver.Solve(ctx, p, opts...)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	for rep := 0; repeat && rep < 4 && wall < 250*time.Millisecond; rep++ {
		start := time.Now()
		if _, err := solver.Solve(ctx, p, opts...); err != nil {
			return err
		}
		if d := time.Since(start); d < wall {
			wall = d
		}
	}
	row.PrepareMillis, row.SolveMillis = millis(prepare), millis(wall)
	row.Iterations, row.Objective = sel.Iterations, sel.Objective.Total()
	row.Truncated, row.Unconverged = sel.Truncated, sel.Unconverged
	row.Allocs, row.AllocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	return nil
}

// Report is the content of one BENCH_<solver>.json file.
type Report struct {
	Solver            string  `json:"solver"`
	GoVersion         string  `json:"goVersion"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	CalibrationMillis float64 `json:"calibrationMillis"`
	Rows              []Row   `json:"rows"`
}

// NewReports groups rows into one report per solver, in order of
// first appearance, stamped with this process's calibration.
func NewReports(rows []Row) []*Report {
	calib := millis(Calibrate())
	var out []*Report
	by := map[string]*Report{}
	for _, r := range rows {
		rep := by[r.Solver]
		if rep == nil {
			rep = &Report{Solver: r.Solver, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), CalibrationMillis: calib}
			by[r.Solver] = rep
			out = append(out, rep)
		}
		rep.Rows = append(rep.Rows, r)
	}
	return out
}

// WriteReports writes one BENCH_<solver>.json per report into dir,
// creating it if needed.
func WriteReports(dir string, reports []*Report) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, r := range reports {
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", r.Solver))
		data, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
