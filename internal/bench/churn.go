package bench

// Churn benchmark: replays an ibench.SplitChurn plan — interleaved
// target appends, target removals and candidate additions — through
// the full lifecycle API (AppendTarget / RemoveTarget /
// AddCandidates) with a warm re-solve after every step, and gates the
// streaming contract on the way: after every single step the
// incremental evidence must be bit-identical to a cold Prepare of the
// mutated problem (EvidenceIdentical, live-aware), and the final warm
// objective must be no worse than a cold Prepare+Solve. Rows are
// recorded next to the streaming rows in BENCH_<solver>.json.

import (
	"context"
	"fmt"
	"time"

	"schemamap/internal/core"
	"schemamap/internal/data"
	"schemamap/internal/ibench"
)

// ChurnResult is one (solver, scale) churn measurement.
type ChurnResult struct {
	Solver string `json:"solver"`
	Scale  string `json:"scale"`
	Seed   int64  `json:"seed"`
	// Plan shape.
	Steps           int `json:"steps"`
	InitialTuples   int `json:"initialTuples"`
	AppendedTuples  int `json:"appendedTuples"`
	RemovedTuples   int `json:"removedTuples"`
	CandidatesAdded int `json:"candidatesAdded"`
	FinalTuples     int `json:"finalTuples"`
	FinalCandidates int `json:"finalCandidates"`
	// Incremental loop totals and per-step averages (a step's mutate
	// time covers its append, removal and candidate addition together).
	TotalMutateMillis    float64 `json:"totalMutateMillis"`
	TotalWarmSolveMillis float64 `json:"totalWarmSolveMillis"`
	AvgMutateMillis      float64 `json:"avgMutateMillis"`
	AvgWarmSolveMillis   float64 `json:"avgWarmSolveMillis"`
	// Cold baseline on the final state, and the headline ratio
	// (cold prepare+solve) / (avg mutate + avg warm re-solve).
	ColdPrepareMillis float64 `json:"coldPrepareMillis"`
	ColdSolveMillis   float64 `json:"coldSolveMillis"`
	Speedup           float64 `json:"speedup"`
	// Gates: the per-step differential (every step's evidence vs a
	// cold Prepare) and the final warm-vs-cold objectives.
	WarmObjective     float64 `json:"warmObjective"`
	ColdObjective     float64 `json:"coldObjective"`
	ObjectivesMatch   bool    `json:"objectivesMatch"`
	EvidenceIdentical bool    `json:"evidenceIdentical"`
	// Skipped carries the reason a solver could not run this scale.
	Skipped string `json:"skipped,omitempty"`
}

// String renders the row for progress output.
func (r ChurnResult) String() string {
	if r.Skipped != "" {
		return fmt.Sprintf("%s/%-12s churn skipped: %s", r.Scale, r.Solver, r.Skipped)
	}
	return fmt.Sprintf(
		"%s/%-12s churn steps=%d (+%d -%d tuples, +%d cands) mutate=%6.2fms warm=%8.2fms cold=%8.2fms+%8.2fms speedup=%5.1fx evidence=%v objective=%v",
		r.Scale, r.Solver, r.Steps, r.AppendedTuples, r.RemovedTuples, r.CandidatesAdded,
		r.AvgMutateMillis, r.AvgWarmSolveMillis,
		r.ColdPrepareMillis, r.ColdSolveMillis, r.Speedup, r.EvidenceIdentical, r.ObjectivesMatch)
}

// ChurnOptions configure a churn run.
type ChurnOptions struct {
	// Scales to churn (nil = S and M).
	Scales []Spec
	// Solvers to run (nil = greedy and collective).
	Solvers []string
	// Steps is the number of mutation steps (0 = 6).
	Steps int
	// Parallelism is passed to prepare/solve via WithParallelism.
	Parallelism int
	// Budget is the per-solve soft budget (0 = unlimited).
	Budget time.Duration
	// Progress, when non-nil, receives one line per row.
	Progress func(string)
}

// RunChurn executes the churn benchmark and returns one row per
// (scale, solver).
func RunChurn(ctx context.Context, opt ChurnOptions) ([]ChurnResult, error) {
	scales := opt.Scales
	if len(scales) == 0 {
		all := Scales()
		scales = all[:2] // S, M
	}
	solvers := opt.Solvers
	if len(solvers) == 0 {
		solvers = []string{"greedy", "collective"}
	}
	steps := opt.Steps
	if steps <= 0 {
		steps = 6
	}
	var rows []ChurnResult
	for _, spec := range scales {
		sc, err := ibench.Generate(spec.Config())
		if err != nil {
			return nil, fmt.Errorf("bench: churn scale %s: %w", spec.Name, err)
		}
		churn, err := ibench.SplitChurn(sc, ibench.ChurnConfig{
			Steps: steps,
			Seed:  spec.Seed + 2, // distinct from the streaming shuffle
		})
		if err != nil {
			return nil, err
		}
		for _, name := range solvers {
			row, err := runChurnOne(ctx, spec, sc, churn, name, opt, steps)
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				row = &ChurnResult{Solver: name, Scale: spec.Name, Seed: spec.Seed, Skipped: err.Error()}
			}
			rows = append(rows, *row)
			if opt.Progress != nil {
				opt.Progress(row.String())
			}
		}
	}
	return rows, nil
}

// coldOf builds a fresh problem over the mutated problem's live target
// tuples and current candidate set — the cold side of the per-step
// differential.
func coldOf(p *core.Problem) *core.Problem {
	J := data.NewInstance()
	jidx := p.JIndex()
	for j, t := range jidx.Tuples {
		if jidx.Live(j) {
			J.Add(t)
		}
	}
	cold := core.NewProblem(p.I, J, p.Candidates)
	cold.Weights = p.Weights
	cold.CoverOptions = p.CoverOptions
	return cold
}

func runChurnOne(ctx context.Context, spec Spec, sc *ibench.Scenario, churn *ibench.ChurnStream, name string, opt ChurnOptions, steps int) (*ChurnResult, error) {
	solver, err := core.Get(name)
	if err != nil {
		return nil, err
	}
	solveOpts := []core.SolveOption{core.WithParallelism(opt.Parallelism)}
	if opt.Budget > 0 {
		solveOpts = append(solveOpts, core.WithBudget(opt.Budget))
	}

	p := core.NewProblem(sc.I, churn.Initial.Clone(), append(churn.Candidates[:0:0], churn.Candidates...))
	p.PrepareStreaming(opt.Parallelism)
	prev, err := solver.Solve(ctx, p, solveOpts...)
	if err != nil {
		return nil, err
	}
	row := &ChurnResult{
		Solver:            name,
		Scale:             spec.Name,
		Seed:              spec.Seed,
		Steps:             steps,
		InitialTuples:     churn.Initial.Len(),
		AppendedTuples:    churn.TotalAppended(),
		RemovedTuples:     churn.TotalRemoved(),
		CandidatesAdded:   churn.TotalCandidatesAdded(),
		EvidenceIdentical: true,
	}
	var mutateTotal, warmTotal time.Duration
	for _, step := range churn.Steps {
		start := time.Now()
		if len(step.Append) > 0 {
			if _, err := p.AppendTarget(step.Append); err != nil {
				return nil, err
			}
		}
		if len(step.Remove) > 0 {
			if _, err := p.RemoveTarget(step.Remove); err != nil {
				return nil, err
			}
		}
		if len(step.AddCandidates) > 0 {
			if _, err := p.AddCandidates(step.AddCandidates); err != nil {
				return nil, err
			}
		}
		mutateTotal += time.Since(start)
		start = time.Now()
		sel, err := solver.Solve(ctx, p, append(solveOpts, core.WithWarmStart(prev))...)
		if err != nil {
			return nil, err
		}
		warmTotal += time.Since(start)
		prev = sel
		// Per-step differential, outside the timed loop: the incremental
		// evidence must match a cold Prepare of the mutated problem.
		cold := coldOf(p)
		cold.PrepareN(opt.Parallelism)
		if !EvidenceIdentical(p, cold) {
			row.EvidenceIdentical = false
		}
	}
	row.FinalTuples = p.NumLiveTuples()
	row.FinalCandidates = p.NumCandidates()
	row.TotalMutateMillis = millis(mutateTotal)
	row.TotalWarmSolveMillis = millis(warmTotal)
	row.AvgMutateMillis = row.TotalMutateMillis / float64(steps)
	row.AvgWarmSolveMillis = row.TotalWarmSolveMillis / float64(steps)
	row.WarmObjective = prev.Objective.Total()

	// Cold baseline on the final state (best-of-3 prepare, min-wall
	// solve, like the streaming benchmark).
	var cold *core.Problem
	var coldPrep time.Duration
	for trial := 0; trial < 3; trial++ {
		c := coldOf(p)
		start := time.Now()
		c.PrepareN(opt.Parallelism)
		if d := time.Since(start); trial == 0 || d < coldPrep {
			coldPrep = d
		}
		cold = c
	}
	start := time.Now()
	coldSel, err := solver.Solve(ctx, cold, solveOpts...)
	if err != nil {
		return nil, err
	}
	coldSolve := time.Since(start)
	for rep := 0; rep < 4 && coldSolve < 250*time.Millisecond; rep++ {
		start := time.Now()
		if _, err := solver.Solve(ctx, cold, solveOpts...); err != nil {
			return nil, err
		}
		if d := time.Since(start); d < coldSolve {
			coldSolve = d
		}
	}
	row.ColdPrepareMillis = millis(coldPrep)
	row.ColdSolveMillis = millis(coldSolve)
	row.ColdObjective = coldSel.Objective.Total()
	diff := row.WarmObjective - row.ColdObjective
	row.ObjectivesMatch = diff < 1e-9 && diff > -1e-9
	if perUpdate := row.AvgMutateMillis + row.AvgWarmSolveMillis; perUpdate > 0 {
		row.Speedup = (row.ColdPrepareMillis + row.ColdSolveMillis) / perUpdate
	}
	return row, nil
}

// CheckChurn gates a churn run: every row must keep the per-step
// evidence differential (zero drift against a cold Prepare after
// every mutation batch) and end with a warm objective no worse than
// the cold Prepare+Solve of the final state. It returns nil when all
// gates hold. CI runs this on the seed-pinned S/M scales, where the
// outcome is deterministic.
func CheckChurn(rows []ChurnResult) error {
	for _, r := range rows {
		if r.Skipped != "" {
			continue
		}
		if !r.EvidenceIdentical {
			return fmt.Errorf("bench: churn %s/%s: incremental evidence diverged from cold Prepare", r.Scale, r.Solver)
		}
		if r.WarmObjective > r.ColdObjective+1e-9 {
			return fmt.Errorf("bench: churn %s/%s: warm objective %g worse than cold objective %g",
				r.Scale, r.Solver, r.WarmObjective, r.ColdObjective)
		}
	}
	return nil
}
