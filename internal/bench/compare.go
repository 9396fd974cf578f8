package bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"schemamap/internal/core"
	"schemamap/internal/ibench"
	"schemamap/internal/psl"
)

// ADMMComparison is the serial-vs-parallel ADMM measurement on one
// scenario's ground MRF (the collective solver's grounding, linking
// constraints included).
type ADMMComparison struct {
	Scale              string  `json:"scale"`
	Parallelism        int     `json:"parallelism"`
	NumCPU             int     `json:"numCPU"`
	Vars               int     `json:"vars"`
	Factors            int     `json:"factors"`
	SerialMillis       float64 `json:"serialMillis"`
	ParallelMillis     float64 `json:"parallelMillis"`
	Speedup            float64 `json:"speedup"`
	SerialObjective    float64 `json:"serialObjective"`
	ParallelObjective  float64 `json:"parallelObjective"`
	ObjectiveDelta     float64 `json:"objectiveDelta"`
	SerialIterations   int     `json:"serialIterations"`
	ParallelIterations int     `json:"parallelIterations"`
}

// ObjectivesMatch reports whether the two runs agree within tol
// (ADMM iterates are chunked deterministically, so the delta should
// in fact be exactly zero).
func (c *ADMMComparison) ObjectivesMatch(tol float64) bool {
	return c.ObjectiveDelta <= tol*(1+math.Abs(c.SerialObjective))
}

// ExpectSpeedup reports whether this machine can physically show a
// parallel speedup: with one usable CPU the pool's workers time-share
// a single core and the best possible outcome is parity.
func (c *ADMMComparison) ExpectSpeedup() bool { return c.NumCPU >= 2 }

// CompareADMM grounds the spec's scenario into the selection MRF, as
// the collective solver does, and solves it with serial and parallel
// ADMM, timing both (best of two each, interleaved, to shed warm-up
// noise).
func CompareADMM(ctx context.Context, spec Spec, parallelism int) (*ADMMComparison, error) {
	if parallelism <= 1 {
		parallelism = 4
	}
	sc, err := ibench.Generate(spec.Config())
	if err != nil {
		return nil, err
	}
	mrf := core.NewProblem(sc.I, sc.J, sc.Candidates).SelectionMRF()

	opts := psl.DefaultADMMOptions()
	opts.MaxIterations = 3000

	solve := func(par int) (time.Duration, *psl.Solution, error) {
		o := opts
		o.Parallelism = par
		var best time.Duration
		var sol *psl.Solution
		for trial := 0; trial < 2; trial++ {
			if err := ctx.Err(); err != nil {
				return 0, nil, err
			}
			start := time.Now()
			s, err := psl.SolveMAP(ctx, mrf, o)
			d := time.Since(start)
			if s == nil {
				return 0, nil, err
			}
			// Infeasibility at loose tolerance is reported, not fatal;
			// both runs see the same problem, so it cancels out.
			if sol == nil || d < best {
				best, sol = d, s
			}
		}
		return best, sol, nil
	}

	serialWall, serialSol, err := solve(1)
	if err != nil {
		return nil, err
	}
	parWall, parSol, err := solve(parallelism)
	if err != nil {
		return nil, err
	}

	return &ADMMComparison{
		Scale:              spec.Name,
		Parallelism:        parallelism,
		NumCPU:             runtime.NumCPU(),
		Vars:               mrf.NumVars(),
		Factors:            len(mrf.Potentials) + len(mrf.Constraints),
		SerialMillis:       millis(serialWall),
		ParallelMillis:     millis(parWall),
		Speedup:            float64(serialWall) / float64(parWall),
		SerialObjective:    serialSol.Objective,
		ParallelObjective:  parSol.Objective,
		ObjectiveDelta:     math.Abs(serialSol.Objective - parSol.Objective),
		SerialIterations:   serialSol.Iterations,
		ParallelIterations: parSol.Iterations,
	}, nil
}

// String renders the comparison for terminals.
func (c *ADMMComparison) String() string {
	verdict := "parallel BEATS serial"
	if c.Speedup < 1 {
		verdict = "parallel slower than serial"
		if !c.ExpectSpeedup() {
			verdict += " (expected: single-CPU machine)"
		}
	}
	return fmt.Sprintf(
		"ADMM %s scale: %d vars, %d factors | serial %.1fms (%d iter) vs parallelism=%d %.1fms (%d iter) | speedup %.2fx | objective delta %.3g | %s",
		c.Scale, c.Vars, c.Factors, c.SerialMillis, c.SerialIterations,
		c.Parallelism, c.ParallelMillis, c.ParallelIterations,
		c.Speedup, c.ObjectiveDelta, verdict)
}
