package bench

import (
	"context"
	"strings"
	"testing"
)

// The streaming harness must produce sane, gate-passing rows on the S
// scale: evidence identical to cold, objectives matching, and the
// stream shape accounted for. (The speedup itself is machine-dependent
// and CI-gated at the M scale via benchrun, not asserted here.)
func TestRunStreamingS(t *testing.T) {
	spec, err := SpecFor("S")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunStreaming(context.Background(), StreamOptions{
		Scales:      []Spec{spec},
		Batches:     3,
		Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// nil Solvers runs the defaults, greedy and collective.
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Skipped != "" {
			t.Fatalf("%s/%s skipped: %s", r.Scale, r.Solver, r.Skipped)
		}
		if !r.EvidenceIdentical {
			t.Errorf("%s/%s: incremental evidence diverged from cold Prepare", r.Scale, r.Solver)
		}
		if !r.ObjectivesMatch {
			t.Errorf("%s/%s: warm objective %g, cold %g", r.Scale, r.Solver, r.WarmObjective, r.ColdObjective)
		}
		if r.Batches != 3 || r.InitialTuples <= 0 || r.AppendedTuples <= 0 ||
			r.FinalTuples != r.InitialTuples+r.AppendedTuples {
			t.Errorf("%s/%s: inconsistent stream shape %+v", r.Scale, r.Solver, r)
		}
		if r.Speedup <= 0 {
			t.Errorf("%s/%s: speedup %g not computed", r.Scale, r.Solver, r.Speedup)
		}
		if r.ColdIterations <= 0 || r.WarmIterations <= 0 {
			t.Errorf("%s/%s: iteration counts not recorded (cold %d, warm %d)",
				r.Scale, r.Solver, r.ColdIterations, r.WarmIterations)
		}
	}
	// The equality gates pass; a huge speedup floor fails only the
	// gated solvers at the largest scale.
	if err := CheckStreaming(rows, []string{"greedy", "collective"}, 0); err != nil {
		t.Errorf("equality gates: %v", err)
	}
	if err := CheckStreaming(rows, []string{"greedy", "collective"}, 1e9); err == nil {
		t.Error("absurd speedup gate passed")
	} else if !strings.Contains(err.Error(), "greedy") && !strings.Contains(err.Error(), "collective") {
		t.Errorf("speedup gate names the wrong row: %v", err)
	}
}

// An unknown solver is a per-row skip, not a harness failure.
func TestRunStreamingUnknownSolver(t *testing.T) {
	spec, err := SpecFor("S")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunStreaming(context.Background(), StreamOptions{
		Scales:  []Spec{spec},
		Solvers: []string{"nosuch"},
		Batches: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Skipped == "" {
		t.Fatalf("rows = %+v, want one skipped row", rows)
	}
	// Skipped rows do not trip the gates.
	if err := CheckStreaming(rows, []string{"greedy"}, 2); err != nil {
		t.Errorf("skipped row tripped a gate: %v", err)
	}
}
