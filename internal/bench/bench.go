// Package bench is the repo's scenario-scale benchmark harness. Every
// benchmark is the replay of one trace — a generated ibench scenario
// at a fixed scale, the state a session opens on, and a list of
// ibench.ChurnStep mutations, each followed by a warm re-solve — and
// every replay emits the same Row (trace.go). The cold solver
// benchmark is a zero-step trace, streaming an append-only one, churn
// interleaves appends, removals and candidate additions, throughput is
// a zero-step trace on the noise-free L/XL specs, and the serve trace
// replays stream and solve traces over HTTP from concurrent sessions
// (serve.go). Gates are predicates over rows (gate.go), plus the
// checked-in baseline (baseline.go), which turns "measurably faster"
// claims in future PRs into recorded numbers. Rows land in one
// machine-readable BENCH_<solver>.json per solver; cmd/benchrun is the
// CLI front end.
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
	"syscall"
	"time"

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

// throughputScales are the throughput trace's specs: noise-free
// scenarios far beyond the solver scales, sized in target tuples. L
// (~1.1·10⁵ tuples) is gated; XL (~1.1·10⁶) is recorded-only, about
// two minutes of generation plus prepare on a workstation. Noise is
// off by design — piErrors/piUnexplained make scenario generation
// itself chase the full candidate set, which would measure the
// generator, not the system — and every primitive instance lives in
// its own relation namespace, so the scenarios are multi-component,
// which is what connected-component sharding exploits.
func throughputScales() []Spec {
	return []Spec{
		{Name: "L", N: 210, Rows: 336, Seed: 105},
		{Name: "XL", N: 700, Rows: 1000, Seed: 106},
	}
}

// ScalesFor returns the specs a trace kind runs at: the throughput
// trace has its own L and XL, every other trace uses Scales.
func ScalesFor(kind string) []Spec {
	if kind == traceThroughput {
		return throughputScales()
	}
	return Scales()
}

// SpecFor resolves a solver scale by name.
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

// Calibrate solves a fixed synthetic ADMM workload serially and
// returns its wall time; reports carry it so that solve times can be
// compared across machines as multiples of this unit. Best of three,
// to shed warm-up noise.
func Calibrate() time.Duration {
	m := calibrationMRF()
	opts := psl.DefaultADMMOptions()
	opts.MaxIterations = 300
	opts.Epsilon = 1e-12 // run all 300 iterations
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

// peakRSSMB returns the process peak resident set size in MiB.
// getrusage reports MaxRSS in KiB on Linux and bytes on Darwin.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	rss := float64(ru.Maxrss)
	if runtime.GOOS == "darwin" {
		return rss / (1024 * 1024)
	}
	return rss / 1024
}
