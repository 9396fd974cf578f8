// Command mapselect runs mapping selection over a scenario JSON file
// (produced by scenariogen) and reports the selected mapping, its
// Eq. (9) objective, and quality against the scenario's gold mapping.
//
// Solvers are resolved by name from the registry (including the
// sharded-* variants, which decompose the problem into connected
// evidence components and solve them on a worker pool); Ctrl-C
// cancels a running solve, -timeout sets a hard deadline, and
// -budget a soft one (the solver returns its best selection so far).
//
// Usage:
//
//	mapselect -scenario sc.json [-solver collective] [-w1 1 -w2 1 -w3 1]
//	          [-timeout 30s] [-budget 500ms] [-par 4] [-seed 1] [-progress]
//	          [-q] [-explain] [-stream 8 [-stream-frac 0.5]]
//
// -q prints only the selected tgds; -explain prints the provenance
// report (per-tuple witnesses, unexplained residue, error tuples);
// -seed seeds randomised tie-breaking.
//
// With -stream N the target is fed in N append batches: the solver
// runs on the initial fraction, then each batch is ingested with
// Problem.AppendTarget (incremental evidence) and re-solved with
// WithWarmStart — the streaming serving loop. The final report is the
// same as a cold run over the full target.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"schemamap/internal/core"
	"schemamap/internal/cover"
	"schemamap/internal/ibench"
	"schemamap/internal/metrics"

	// Registers the sharded-* solvers so -solver can name them.
	_ "schemamap/internal/shard"
)

func main() {
	var (
		path     = flag.String("scenario", "", "scenario JSON file (required)")
		solver   = flag.String("solver", "collective", "solver name: "+strings.Join(core.Names(), " | "))
		w1       = flag.Float64("w1", 1, "weight of unexplained tuples")
		w2       = flag.Float64("w2", 1, "weight of errors")
		w3       = flag.Float64("w3", 1, "weight of mapping size")
		timeout  = flag.Duration("timeout", 0, "hard deadline for the solve (0 = none)")
		budget   = flag.Duration("budget", 0, "soft compute budget; on expiry the best selection so far is returned (0 = none)")
		par      = flag.Int("par", 0, "parallelism of the prepare phase (0 = GOMAXPROCS)")
		seed     = flag.Int64("seed", 0, "seed for randomised tie-breaking (0 = deterministic)")
		progress = flag.Bool("progress", false, "report solver progress on stderr")
		quiet    = flag.Bool("q", false, "print only the selected tgds")
		explain  = flag.Bool("explain", false, "print the provenance report (witnesses, unexplained tuples, errors)")
		stream   = flag.Int("stream", 0, "feed the target in N append batches (incremental AppendTarget + warm-start re-solves) instead of one cold solve")
		streamF  = flag.Float64("stream-frac", 0.5, "fraction of the target in the initial instance when -stream is set")
	)
	flag.Parse()
	weights := core.Weights{Explain: *w1, Error: *w2, Size: *w3}
	if err := weights.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "mapselect:", err)
		flag.Usage()
		os.Exit(2)
	}
	if *path == "" {
		fatal(fmt.Errorf("missing -scenario"))
	}
	b, err := os.ReadFile(*path)
	if err != nil {
		fatal(err)
	}
	sc, err := ibench.UnmarshalScenario(b)
	if err != nil {
		fatal(err)
	}

	s, err := core.Get(*solver)
	if err != nil {
		fatal(err)
	}

	// Ctrl-C or SIGTERM cancels the solve (the solver returns the
	// cancellation at its next checkpoint and mapselect exits non-zero);
	// -timeout is a hard deadline on top.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := []core.SolveOption{core.WithParallelism(*par)}
	if *budget > 0 {
		opts = append(opts, core.WithBudget(*budget))
	}
	if *seed != 0 {
		opts = append(opts, core.WithSeed(*seed))
	}
	if *progress {
		start := time.Now()
		opts = append(opts, core.WithProgress(func(e core.Event) {
			best := ""
			if e.HasObjective {
				best = fmt.Sprintf(" best=%.4g", e.Objective)
			}
			fmt.Fprintf(os.Stderr, "[%8s] %s/%s iter=%d%s\n",
				time.Since(start).Round(time.Millisecond), e.Solver, e.Phase, e.Iteration, best)
		}))
	}

	var p *core.Problem
	var sel *core.Selection
	if *stream > 0 {
		// Streaming mode: solve the initial target, then ingest the
		// rest in batches with incremental evidence updates and
		// warm-started re-solves — the serving loop of a live target.
		st, err := ibench.SplitTarget(sc, ibench.StreamConfig{
			Batches:     *stream,
			InitialFrac: *streamF,
			Seed:        *seed + 1,
		})
		if err != nil {
			fatal(err)
		}
		p = core.NewProblem(sc.I, st.Initial, sc.Candidates)
		p.Weights = weights
		p.PrepareStreaming(*par)
		sel, err = s.Solve(ctx, p, opts...)
		if err != nil {
			fatal(err)
		}
		for bi, batch := range st.Batches {
			if _, err := p.AppendTarget(batch); err != nil {
				fatal(err)
			}
			sel, err = s.Solve(ctx, p, append(opts, core.WithWarmStart(sel))...)
			if err != nil {
				fatal(err)
			}
			if *progress {
				fmt.Fprintf(os.Stderr, "[stream] batch %d/%d: |J|=%d %s\n",
					bi+1, *stream, p.J.Len(), sel.Objective)
			}
		}
	} else {
		p = core.NewProblem(sc.I, sc.J, sc.Candidates)
		p.Weights = weights
		sel, err = s.Solve(ctx, p, opts...)
		if err != nil {
			fatal(err)
		}
	}

	chosen := p.SelectedMapping(sel.Chosen)
	for _, d := range chosen {
		fmt.Println(d)
	}
	if *quiet {
		return
	}
	note := ""
	if sel.Truncated {
		note = ", budget expired — best so far"
	} else if sel.Unconverged {
		note = ", relaxation did not converge"
	}
	fmt.Printf("\nsolver      : %s (%v, %d iterations%s)\n", sel.Solver, sel.Runtime, sel.Iterations, note)
	fmt.Printf("objective   : %s\n", sel.Objective)
	fmt.Printf("selected    : %d of %d candidates\n", sel.Count(), len(sc.Candidates))
	if len(sc.Gold) > 0 {
		mp := metrics.MappingPRF(chosen, sc.Gold)
		tp := metrics.TuplePRF(sc.I, chosen, sc.Gold)
		fmt.Printf("mapping PRF : %s\n", mp)
		fmt.Printf("tuple PRF   : %s\n", tp)
	}
	if *explain {
		rep := cover.Explain(sc.I, sc.J, sc.Candidates, sel.Chosen, cover.DefaultOptions())
		fmt.Printf("\n%s", rep.Summary(10))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mapselect:", err)
	os.Exit(1)
}
