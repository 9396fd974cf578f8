// Command benchrun is the scenario-scale benchmark CLI: it replays the
// selected trace kinds at the requested scales, writes one
// machine-readable BENCH_<solver>.json per solver, and applies the row
// gates and the perf baseline.
//
// Usage:
//
//	benchrun [flags]
//
//	-trace K,...         trace kinds to replay (default solve):
//	                     solve       cold Prepare + solve, every
//	                                 registered solver
//	                     stream      8 append batches with warm
//	                                 re-solves vs cold Prepare+Solve
//	                                 (greedy, collective)
//	                     churn       6 steps of appends, removals and
//	                                 candidate adds (greedy, collective)
//	                     serve       stream and solve traces over HTTP
//	                                 from 120 concurrent sessions per
//	                                 scale, plus a recorded-only L corpus
//	                                 at 30 (greedy, collective)
//	                     throughput  the noise-free L/XL specs, tuples/sec
//	                                 and peak RSS (sharded-greedy,
//	                                 sharded-collective); replayed first
//	-scale S|M|L|all     scales to replay (default S; a comma list; the
//	                     throughput trace has its own L and XL; "none"
//	                     skips replay, e.g. for a pure -compare-admm run)
//	-solvers a,b,...     solver subset (default: each trace's own set)
//	-parallelism N       WithParallelism for every prepare and solve
//	                     (default 4)
//	-out DIR             output directory for BENCH_*.json (default .)
//	-stream-gate X       speedup floor of the greedy and collective
//	                     stream rows at the largest streamed scale
//	                     (default 2; 0 turns it off)
//	-baseline FILE       perf baseline to gate against (optional): the
//	                     collective solve time at its scale and prepare
//	                     time at M, in calibration units
//	-gate PCT            allowed regression percent (default 20)
//	-update-baseline     rewrite FILE from this run instead of gating
//	-compare-admm        also run the serial-vs-parallel ADMM
//	                     comparison on the M scenario
//	-strict-compare      exit non-zero when -compare-admm sees no
//	                     speedup on a multi-core machine
//	-cpuprofile FILE     write a pprof CPU profile of the run
//	-memprofile FILE     write a pprof heap profile at exit
//
// Every replayed row is checked by the row gates (bench.Check):
// differential and warm ≤ cold on stream and churn rows, the speedup
// floor, zero errors and a warm cache on serve rows, and the
// throughput floor and RSS budget at L.
//
// SIGINT/SIGTERM cancel the run cleanly (partial work is abandoned,
// nothing is written) with a non-zero exit.
//
// Exit codes: 0 ok, 1 usage/run/interrupt error, 2 gate or comparison
// failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"

	"schemamap/internal/bench"
)

// The baseline records the collective (ADMM) solve time — gating
// microsecond-fast solvers on wall time would only add noise — and
// the prepare time at M, where prepare is long enough to time.
const (
	baselineSolver = "collective"
	prepareScale   = "M"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		traceFlag      = flag.String("trace", "solve", "trace kinds to replay: a comma list of throughput, solve, stream, churn, serve")
		scaleFlag      = flag.String("scale", "S", "scales to replay: S, M, L (throughput: L, XL), a comma list, all, or none")
		solversFlag    = flag.String("solvers", "", "comma-separated solver subset (default: each trace's own set)")
		parallelism    = flag.Int("parallelism", 4, "WithParallelism for every prepare and solve (0 = GOMAXPROCS)")
		outDir         = flag.String("out", ".", "output directory for BENCH_<solver>.json")
		streamGate     = flag.Float64("stream-gate", 2, "speedup floor of the greedy and collective stream rows at the largest streamed scale (0 turns it off)")
		baselinePath   = flag.String("baseline", "", "baseline file to gate against (see -gate)")
		gate           = flag.Float64("gate", 20, "allowed regression in percent vs -baseline")
		updateBaseline = flag.Bool("update-baseline", false, "rewrite -baseline from this run instead of gating")
		compareADMM    = flag.Bool("compare-admm", false, "run the serial-vs-parallel ADMM comparison on the M scenario")
		strictCompare  = flag.Bool("strict-compare", false, "fail -compare-admm when no speedup on a multi-core machine")
		cpuprofile     = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile     = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchrun:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchrun:", err)
			}
		}()
	}

	kinds := strings.Split(*traceFlag, ",")
	for _, k := range kinds {
		if !slices.Contains(bench.Traces(), k) {
			fmt.Fprintf(os.Stderr, "benchrun: unknown trace %q (have %s)\n", k, strings.Join(bench.Traces(), ", "))
			return 1
		}
	}
	opt := bench.Options{Parallelism: *parallelism, Progress: func(line string) { fmt.Println(line) }}
	if *solversFlag != "" {
		opt.Solvers = strings.Split(*solversFlag, ",")
	}

	// SIGINT/SIGTERM cancel the run; solvers notice at their iteration
	// checkpoints and the replay returns the cancellation.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var rows []bench.Row
	for _, kind := range bench.Traces() { // throughput first: peak RSS is a high-water mark
		if !slices.Contains(kinds, kind) {
			continue
		}
		specs, err := parseScales(kind, *scaleFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			return 1
		}
		if len(specs) == 0 {
			continue
		}
		fmt.Printf("benchrun: trace=%s scales=%s parallelism=%d\n", kind, *scaleFlag, *parallelism)
		got, err := bench.Replay(ctx, kind, specs, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			return 1
		}
		rows = append(rows, got...)
	}
	exit := 0
	var reports []*bench.Report
	if len(rows) > 0 {
		reports = bench.NewReports(rows)
		paths, err := bench.WriteReports(*outDir, reports)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			return 1
		}
		for _, p := range paths {
			fmt.Println("wrote", p)
		}
		if err := bench.Check(rows, *streamGate); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit = 2
		} else {
			fmt.Printf("row gates ok: %d rows (stream speedup floor %gx)\n", len(rows), *streamGate)
		}
	}

	if *baselinePath != "" && len(rows) > 0 {
		if *updateBaseline {
			scale := ""
			if i := slices.IndexFunc(rows, func(r bench.Row) bool { return r.Trace == "solve" }); i >= 0 {
				scale = rows[i].Scale
			}
			b := bench.BaselineFrom(reports, scale, baselineSolver)
			if !b.RecordPrepare(reports, prepareScale, baselineSolver) {
				// Writing a baseline without the prepare gate silently
				// disarms the CI prepare check — make it loud.
				fmt.Fprintf(os.Stderr,
					"benchrun: warning: no usable %s-scale measurement; baseline written WITHOUT a prepare gate (run with -scale including %s to record one)\n",
					prepareScale, prepareScale)
			}
			b.RecordedOn = fmt.Sprintf("go %s, GOMAXPROCS=%d", reports[0].GoVersion, reports[0].GOMAXPROCS)
			if err := bench.WriteBaseline(*baselinePath, b); err != nil {
				fmt.Fprintln(os.Stderr, "benchrun:", err)
				return 1
			}
			fmt.Printf("updated baseline %s (scale %s)\n", *baselinePath, scale)
		} else {
			b, err := bench.LoadBaseline(*baselinePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchrun:", err)
				return 1
			}
			if err := bench.CheckBaseline(b, reports, *gate); err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit = 2
			} else {
				fmt.Printf("perf gate ok: within %g%% of baseline %s (scale %s)\n", *gate, *baselinePath, b.Scale)
			}
		}
	}

	if *compareADMM {
		spec, _ := bench.SpecFor("M")
		cmp, err := bench.CompareADMM(ctx, spec, *parallelism)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			return 1
		}
		fmt.Println(cmp)
		if !cmp.ObjectivesMatch(1e-6) {
			fmt.Fprintf(os.Stderr, "benchrun: parallel ADMM objective diverged from serial by %g (tolerance 1e-6)\n", cmp.ObjectiveDelta)
			exit = 2
		}
		if *strictCompare && cmp.ExpectSpeedup() && cmp.Speedup < 1 {
			fmt.Fprintf(os.Stderr, "benchrun: parallel ADMM slower than serial (%.2fx) on a %d-CPU machine\n", cmp.Speedup, cmp.NumCPU)
			exit = 2
		}
	}
	return exit
}

// parseScales resolves the -scale names against a trace kind's specs.
func parseScales(kind, s string) ([]bench.Spec, error) {
	all := bench.ScalesFor(kind)
	if strings.EqualFold(s, "all") {
		return all, nil
	}
	if s == "" || strings.EqualFold(s, "none") {
		return nil, nil
	}
	var out []bench.Spec
	for _, name := range strings.Split(s, ",") {
		name = strings.ToUpper(strings.TrimSpace(name))
		i := slices.IndexFunc(all, func(spec bench.Spec) bool { return spec.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("trace %s has no scale %q", kind, name)
		}
		out = append(out, all[i])
	}
	return out, nil
}
