package psl_test

import (
	"fmt"
	"testing"

	"schemamap/internal/core"
	"schemamap/internal/ibench"
	"schemamap/internal/psl"
)

// The presolve differential on real groundings: M-scale generated
// scenarios (the benchmark's M spec and two more seeds) and one S.
func TestPresolveMatchesBlockedOnScenarios(t *testing.T) {
	for _, tc := range []struct {
		n, rows int
		seed    int64
	}{{7, 10, 7}, {28, 24, 28}, {28, 24, 1023}, {28, 24, 5}} {
		t.Run(fmt.Sprintf("n%d-seed%d", tc.n, tc.seed), func(t *testing.T) {
			if testing.Short() && tc.n > 7 {
				t.Skip("M groundings skipped in -short")
			}
			cfg := ibench.DefaultConfig(tc.n, tc.seed)
			cfg.Rows = tc.rows
			cfg.PiCorresp, cfg.PiErrors, cfg.PiUnexplained = 20, 10, 10
			sc, err := ibench.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			psl.PresolveDifferential(t, core.NewProblem(sc.I, sc.J, sc.Candidates).SelectionMRF())
		})
	}
}
