package core

import (
	"context"
	"testing"

	"schemamap/internal/ibench"
)

// scenarioProblems builds seeded noisy ibench scenarios — the workload
// the benchmark harness runs — for differential tests.
func scenarioProblems(t *testing.T) []*Problem {
	t.Helper()
	var out []*Problem
	for _, seed := range []int64{1, 5, 9} {
		cfg := ibench.DefaultConfig(7, seed)
		cfg.Rows = 8
		cfg.PiCorresp = 25
		cfg.PiErrors = 10
		cfg.PiUnexplained = 10
		sc, err := ibench.Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		out = append(out, NewProblem(sc.I, sc.J, sc.Candidates))
	}
	return out
}

// TestCollectiveParallelMatchesSerial runs the full collective solver
// (grounding + ADMM + rounding + repair) serially and at parallelism 4
// on scenario problems; selections and objectives must be identical —
// the ADMM chunking is deterministic, and everything downstream of it
// is sequential.
func TestCollectiveParallelMatchesSerial(t *testing.T) {
	for i, p := range scenarioProblems(t) {
		s := CollectiveSolver{}
		serial, err := s.Solve(context.Background(), p, WithParallelism(1))
		if err != nil {
			t.Fatalf("problem %d serial: %v", i, err)
		}
		par, err := s.Solve(context.Background(), p, WithParallelism(4))
		if err != nil {
			t.Fatalf("problem %d parallel: %v", i, err)
		}
		if serial.Objective.Total() != par.Objective.Total() {
			t.Errorf("problem %d: objective %v (parallel) vs %v (serial)",
				i, par.Objective.Total(), serial.Objective.Total())
		}
		for j := range serial.Chosen {
			if serial.Chosen[j] != par.Chosen[j] {
				t.Fatalf("problem %d: selection differs at candidate %d", i, j)
			}
		}
		if serial.Iterations != par.Iterations {
			t.Errorf("problem %d: iterations %d (parallel) vs %d (serial)", i, par.Iterations, serial.Iterations)
		}
	}
}
