package bench

import (
	"context"
	"strings"
	"testing"
)

// The stream trace must produce sane, gate-passing rows on the S
// scale: evidence identical to cold after every step, warm objectives
// reproduced by the check replay and equal to the cold solve, and the
// stream shape accounted for. (The speedup itself is machine-dependent
// and CI-gated at the M scale via benchrun, not asserted here.)
func TestRunStreamingS(t *testing.T) {
	spec, err := SpecFor("S")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Replay(context.Background(), traceStream, []Spec{spec}, Options{Parallelism: 2})
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
		if !r.EvidenceIdentical || !r.WarmReproducible {
			t.Errorf("%s/%s: differential failed: %+v", r.Scale, r.Solver, r)
		}
		if d := r.WarmObjective - r.Objective; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s/%s: warm objective %g, cold %g", r.Scale, r.Solver, r.WarmObjective, r.Objective)
		}
		if r.Steps != streamBatches || r.InitialTuples <= 0 || r.AppendedTuples <= 0 || r.RemovedTuples != 0 ||
			r.JTuples != r.InitialTuples+r.AppendedTuples {
			t.Errorf("%s/%s: inconsistent stream shape %+v", r.Scale, r.Solver, r)
		}
		if r.Speedup <= 0 {
			t.Errorf("%s/%s: speedup %g not computed", r.Scale, r.Solver, r.Speedup)
		}
		if r.Iterations <= 0 || r.WarmIterations <= 0 {
			t.Errorf("%s/%s: iteration counts not recorded (cold %d, warm %d)",
				r.Scale, r.Solver, r.Iterations, r.WarmIterations)
		}
	}
	// The equality gates pass; a huge speedup floor fails only the
	// gated solvers at the largest scale.
	if err := Check(rows, 0); err != nil {
		t.Errorf("equality gates: %v", err)
	}
	if err := Check(rows, 1e9); err == nil {
		t.Error("absurd speedup gate passed")
	} else if !strings.Contains(err.Error(), "greedy") || !strings.Contains(err.Error(), "collective") {
		t.Errorf("speedup gate names the wrong rows: %v", err)
	}
}

// An unknown solver fails the stream replay up front.
func TestRunStreamingUnknownSolver(t *testing.T) {
	spec, err := SpecFor("S")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(context.Background(), traceStream, []Spec{spec}, Options{Solvers: []string{"nosuch"}}); err == nil {
		t.Fatal("unknown solver must fail")
	}
}
