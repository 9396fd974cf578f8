package bench

import (
	"context"
	"testing"

	"schemamap/internal/ibench"
)

// The churn trace must produce sane, gate-passing rows on the S scale:
// per-step evidence identical to cold, warm objectives reproduced by
// the check replay, final warm objective no worse than cold, and the
// plan shape accounted for.
func TestRunChurnS(t *testing.T) {
	spec, err := SpecFor("S")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Replay(context.Background(), traceChurn, []Spec{spec}, Options{Parallelism: 2})
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
		if r.WarmObjective > r.Objective+1e-9 {
			t.Errorf("%s/%s: warm objective %g worse than cold %g", r.Scale, r.Solver, r.WarmObjective, r.Objective)
		}
		if r.Steps != churnSteps || r.InitialTuples <= 0 || r.AppendedTuples <= 0 ||
			r.RemovedTuples <= 0 || r.CandidatesAdded <= 0 {
			t.Errorf("%s/%s: inconsistent churn shape %+v", r.Scale, r.Solver, r)
		}
		if r.JTuples != r.InitialTuples+r.AppendedTuples-r.RemovedTuples {
			t.Errorf("%s/%s: final tuples %d, want initial %d + appended %d - removed %d",
				r.Scale, r.Solver, r.JTuples, r.InitialTuples, r.AppendedTuples, r.RemovedTuples)
		}
		if r.Speedup <= 0 {
			t.Errorf("%s/%s: speedup %g not computed", r.Scale, r.Solver, r.Speedup)
		}
	}
	if err := Check(rows, 2); err != nil {
		t.Errorf("churn gates: %v", err)
	}
}

// A churn plan replays to exactly the scenario state: live target =
// appends minus removals, candidates = the scenario's full mapping.
func TestSplitChurnShape(t *testing.T) {
	spec, err := SpecFor("S")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ibench.Generate(spec.Config())
	if err != nil {
		t.Fatal(err)
	}
	churn, err := ibench.SplitChurn(sc, ibench.ChurnConfig{Steps: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if churn.Initial.Len() == 0 || len(churn.Steps) != 5 {
		t.Fatalf("plan shape: initial %d, steps %d", churn.Initial.Len(), len(churn.Steps))
	}
	nCands := len(churn.Candidates) + churn.TotalCandidatesAdded()
	if nCands != len(sc.Candidates) {
		t.Errorf("candidates: initial %d + added %d != scenario %d",
			len(churn.Candidates), churn.TotalCandidatesAdded(), len(sc.Candidates))
	}
	appended, removed := churnTotals(churn)
	if removed == 0 {
		t.Error("plan has no removals")
	}
	// Equal configs split identically.
	again, err := ibench.SplitChurn(sc, ibench.ChurnConfig{Steps: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if a, r := churnTotals(again); !churn.Initial.Equal(again.Initial) || a != appended || r != removed {
		t.Error("churn split is not deterministic")
	}
}

// An unknown solver fails the churn replay up front.
func TestRunChurnUnknownSolver(t *testing.T) {
	spec, err := SpecFor("S")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(context.Background(), traceChurn, []Spec{spec}, Options{Solvers: []string{"nosuch"}}); err == nil {
		t.Fatal("unknown solver must fail")
	}
}

// churnTotals counts the tuples a churn plan appends and removes.
func churnTotals(c *ibench.ChurnStream) (appended, removed int) {
	for _, st := range c.Steps {
		appended += len(st.Append)
		removed += len(st.Remove)
	}
	return appended, removed
}
