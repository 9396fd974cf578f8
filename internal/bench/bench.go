// Package bench is the repo's scenario-scale benchmark harness: it
// generates ibench-style mapping scenarios at fixed S/M/L scales, runs
// every registered solver on them through the core registry, and emits
// machine-readable BENCH_<solver>.json reports (wall time, iterations,
// objective, allocations). cmd/benchrun is the CLI front end; CI runs
// the S scale on every PR and gates on the checked-in baseline
// (baseline.go), which turns "measurably faster" claims in future PRs
// into recorded numbers.
//
// Wall times are meaningless across machines, so every report carries
// a calibration measurement — a fixed synthetic ADMM workload solved
// serially on the same process — and the baseline gate compares
// calibration-normalised solve times rather than raw milliseconds.
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"schemamap/internal/core"
	"schemamap/internal/ibench"
	"schemamap/internal/psl"
)

// Spec is one benchmark scale: a fully determined ibench scenario
// configuration. Equal specs generate equal scenarios.
type Spec struct {
	// Name is the scale label ("S", "M", "L").
	Name string `json:"name"`
	// N is the number of iBench primitive instances (all seven
	// primitives cycled).
	N int `json:"n"`
	// Rows is the number of source tuples per relation.
	Rows int `json:"rows"`
	// Noise percentages of the paper's Table I.
	PiCorresp     float64 `json:"piCorresp"`
	PiErrors      float64 `json:"piErrors"`
	PiUnexplained float64 `json:"piUnexplained"`
	// Seed drives all scenario randomness.
	Seed int64 `json:"seed"`
}

// Scales returns the three standard scales. S is sized for a CI gate
// (everything, including exhaustive search, finishes in seconds), M
// for the parallel-ADMM comparison, L for stress runs.
func Scales() []Spec {
	return []Spec{
		{Name: "S", N: 7, Rows: 10, PiCorresp: 20, PiErrors: 10, PiUnexplained: 10, Seed: 7},
		{Name: "M", N: 28, Rows: 24, PiCorresp: 20, PiErrors: 10, PiUnexplained: 10, Seed: 28},
		{Name: "L", N: 56, Rows: 36, PiCorresp: 20, PiErrors: 10, PiUnexplained: 10, Seed: 56},
	}
}

// SpecFor resolves a scale by name.
func SpecFor(name string) (Spec, error) {
	for _, s := range Scales() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("bench: unknown scale %q (have S, M, L)", name)
}

// Config generates the ibench configuration of a spec.
func (s Spec) Config() ibench.Config {
	cfg := ibench.DefaultConfig(s.N, s.Seed)
	cfg.Rows = s.Rows
	cfg.PiCorresp = s.PiCorresp
	cfg.PiErrors = s.PiErrors
	cfg.PiUnexplained = s.PiUnexplained
	return cfg
}

// Result is one (solver, scale) measurement.
type Result struct {
	Solver      string `json:"solver"`
	Scale       string `json:"scale"`
	Seed        int64  `json:"seed"`
	Parallelism int    `json:"parallelism"`
	// Scenario size.
	Candidates int `json:"candidates"`
	JTuples    int `json:"jTuples"`
	// PrepareMillis is the shared chase + cover analysis phase;
	// SolveMillis the solver proper (what the baseline gates on).
	PrepareMillis float64 `json:"prepareMillis"`
	SolveMillis   float64 `json:"solveMillis"`
	Iterations    int     `json:"iterations"`
	Objective     float64 `json:"objective"`
	// GoldObjective is F at the generating mapping, for context.
	GoldObjective float64 `json:"goldObjective"`
	Truncated     bool    `json:"truncated"`
	// Unconverged flags a relaxation that stopped short of its
	// convergence tolerance (see core.Selection.Unconverged); omitted
	// when false.
	Unconverged bool `json:"unconverged,omitempty"`
	// Allocations during the solve (prepare excluded).
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"allocBytes"`
	// Skipped carries the reason a solver could not run this scale
	// (e.g. the exhaustive solver's candidate cap); all measurements
	// are zero then.
	Skipped string `json:"skipped,omitempty"`
}

// Report is the content of one BENCH_<solver>.json file.
type Report struct {
	Solver            string   `json:"solver"`
	GoVersion         string   `json:"goVersion"`
	GOMAXPROCS        int      `json:"gomaxprocs"`
	CalibrationMillis float64  `json:"calibrationMillis"`
	Results           []Result `json:"results"`
	// Streaming holds the solver's incremental-ingestion rows when the
	// run included the streaming benchmark (benchrun -stream).
	Streaming []StreamResult `json:"streaming,omitempty"`
	// Serve holds the solver's serving-load rows when the run included
	// the session-server benchmark (benchrun -serve).
	Serve []ServeResult `json:"serve,omitempty"`
	// Throughput holds the solver's L/XL end-to-end throughput rows
	// when the run included the throughput benchmark (benchrun
	// -throughput); see RunThroughput.
	Throughput []ThroughputResult `json:"throughput,omitempty"`
	// Churn holds the solver's lifecycle-churn rows when the run
	// included the churn benchmark (benchrun -churn); see RunChurn.
	Churn []ChurnResult `json:"churn,omitempty"`
}

// Options configure a harness run.
type Options struct {
	// Scales to run (nil = all three).
	Scales []Spec
	// Solvers to run (nil = every registered solver, core.Names()).
	Solvers []string
	// Parallelism is passed to every solve via WithParallelism
	// (0 = GOMAXPROCS).
	Parallelism int
	// Budget is the per-solve soft compute budget (0 = unlimited).
	// Exhaustive search needs it beyond the S scale.
	Budget time.Duration
	// Progress, when non-nil, receives one line per measurement.
	Progress func(string)
}

// Run executes the harness and returns one report per solver.
func Run(ctx context.Context, opt Options) ([]*Report, error) {
	scales := opt.Scales
	if len(scales) == 0 {
		scales = Scales()
	}
	solvers := opt.Solvers
	if len(solvers) == 0 {
		solvers = core.Names()
	}
	calib := Calibrate()
	reports := make(map[string]*Report, len(solvers))
	var order []*Report
	for _, name := range solvers {
		if _, err := core.Get(name); err != nil {
			return nil, err
		}
		r := &Report{
			Solver:            name,
			GoVersion:         runtime.Version(),
			GOMAXPROCS:        runtime.GOMAXPROCS(0),
			CalibrationMillis: millis(calib),
			Results:           []Result{},
		}
		reports[name] = r
		order = append(order, r)
	}

	for _, spec := range scales {
		sc, err := ibench.Generate(spec.Config())
		if err != nil {
			return nil, fmt.Errorf("bench: scale %s: %w", spec.Name, err)
		}
		for _, name := range solvers {
			res, err := runOne(ctx, spec, sc, name, opt)
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				// A solver declining a scale (e.g. exhaustive search's
				// candidate cap) is data, not a harness failure.
				res = &Result{Solver: name, Scale: spec.Name, Seed: spec.Seed, Skipped: err.Error()}
			}
			reports[name].Results = append(reports[name].Results, *res)
			if opt.Progress != nil {
				line := fmt.Sprintf(
					"%s/%-12s prepare=%8.1fms solve=%9.1fms iter=%6d F=%.4g allocs=%d%s%s",
					spec.Name, name, res.PrepareMillis, res.SolveMillis,
					res.Iterations, res.Objective, res.Allocs,
					map[bool]string{true: " (truncated)"}[res.Truncated],
					map[bool]string{true: " (unconverged)"}[res.Unconverged])
				if res.Skipped != "" {
					line = fmt.Sprintf("%s/%-12s skipped: %s", spec.Name, name, res.Skipped)
				}
				opt.Progress(line)
			}
		}
	}
	return order, nil
}

// runOne measures a single solver on a generated scenario. Each solver
// gets a fresh Problem so its prepare cost is measured independently.
func runOne(ctx context.Context, spec Spec, sc *ibench.Scenario, name string, opt Options) (*Result, error) {
	solver, err := core.Get(name)
	if err != nil {
		return nil, err
	}
	p := core.NewProblem(sc.I, sc.J, sc.Candidates)

	prepStart := time.Now()
	p.PrepareN(opt.Parallelism)
	prepare := time.Since(prepStart)

	var opts []core.SolveOption
	opts = append(opts, core.WithParallelism(opt.Parallelism))
	if opt.Budget > 0 {
		opts = append(opts, core.WithBudget(opt.Budget))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	sel, err := solver.Solve(ctx, p, opts...)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	// Fast solves are re-run (min wall) so the baseline gate compares
	// a stable number instead of scheduler noise; the solvers are
	// deterministic on a prepared problem, so the selection is
	// unchanged.
	for rep := 0; rep < 4 && wall < 250*time.Millisecond; rep++ {
		start := time.Now()
		if _, err := solver.Solve(ctx, p, opts...); err != nil {
			return nil, err
		}
		if d := time.Since(start); d < wall {
			wall = d
		}
	}

	return &Result{
		Solver:        name,
		Scale:         spec.Name,
		Seed:          spec.Seed,
		Parallelism:   opt.Parallelism,
		Candidates:    len(sc.Candidates),
		JTuples:       sc.J.Len(),
		PrepareMillis: millis(prepare),
		SolveMillis:   millis(wall),
		Iterations:    sel.Iterations,
		Objective:     sel.Objective.Total(),
		GoldObjective: p.Objective(sc.GoldSelection()).Total(),
		Truncated:     sel.Truncated,
		Unconverged:   sel.Unconverged,
		Allocs:        after.Mallocs - before.Mallocs,
		AllocBytes:    after.TotalAlloc - before.TotalAlloc,
	}, nil
}

// Calibrate solves a fixed synthetic ADMM workload serially and
// returns its wall time; reports carry it so that solve times can be
// compared across machines as multiples of this unit. Best of three,
// to shed warm-up noise.
func Calibrate() time.Duration {
	m := calibrationMRF()
	opts := psl.DefaultADMMOptions()
	opts.MaxIterations = 300
	opts.Epsilon = 1e-12 // run all 300 iterations
	opts.Parallelism = 1
	best := time.Duration(0)
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		if sol, err := psl.SolveMAP(context.Background(), m, opts); sol == nil {
			panic(fmt.Sprintf("bench: calibration solve failed: %v", err))
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// calibrationMRF is a fixed seeded random MRF with conflicting hinges
// (a plain chain converges in a handful of iterations — the
// closed-form steps land exactly on its optimum — so it measures
// nothing). Its shape must never change, or recorded baselines stop
// being comparable.
func calibrationMRF() *psl.MRF {
	rng := rand.New(rand.NewSource(1234))
	m := psl.NewMRF()
	const n, pots = 400, 1600
	for i := 0; i < n; i++ {
		m.Var(fmt.Sprintf("x%d", i))
	}
	for p := 0; p < pots; p++ {
		k := 2 + rng.Intn(2)
		terms := make([]psl.LinTerm, 0, k)
		seen := make(map[int]bool, k)
		for len(terms) < k {
			v := rng.Intn(n)
			if seen[v] {
				continue
			}
			seen[v] = true
			terms = append(terms, psl.LinTerm{Var: v, Coef: rng.Float64()*2 - 1})
		}
		m.AddPotential(psl.Potential{
			Weight:  0.1 + rng.Float64(),
			Squared: p%2 == 0,
			Terms:   terms,
			Const:   rng.Float64() - 0.5,
		})
	}
	return m
}

func millis(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}
