package bench

import (
	"context"
	"testing"

	"schemamap/internal/ibench"
)

// The churn harness must produce sane, gate-passing rows on the S
// scale: per-step evidence identical to cold, final warm objective no
// worse than cold, and the plan shape accounted for.
func TestRunChurnS(t *testing.T) {
	spec, err := SpecFor("S")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunChurn(context.Background(), ChurnOptions{
		Scales:      []Spec{spec},
		Steps:       4,
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
		if r.WarmObjective > r.ColdObjective+1e-9 {
			t.Errorf("%s/%s: warm objective %g worse than cold %g", r.Scale, r.Solver, r.WarmObjective, r.ColdObjective)
		}
		if r.Steps != 4 || r.InitialTuples <= 0 || r.AppendedTuples <= 0 ||
			r.RemovedTuples <= 0 || r.CandidatesAdded <= 0 {
			t.Errorf("%s/%s: inconsistent churn shape %+v", r.Scale, r.Solver, r)
		}
		if r.FinalTuples != r.InitialTuples+r.AppendedTuples-r.RemovedTuples {
			t.Errorf("%s/%s: final tuples %d, want initial %d + appended %d - removed %d",
				r.Scale, r.Solver, r.FinalTuples, r.InitialTuples, r.AppendedTuples, r.RemovedTuples)
		}
		if r.Speedup <= 0 {
			t.Errorf("%s/%s: speedup %g not computed", r.Scale, r.Solver, r.Speedup)
		}
	}
	if err := CheckChurn(rows); err != nil {
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
	if churn.TotalRemoved() == 0 {
		t.Error("plan has no removals")
	}
	// Equal configs split identically.
	again, err := ibench.SplitChurn(sc, ibench.ChurnConfig{Steps: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !churn.Initial.Equal(again.Initial) || again.TotalRemoved() != churn.TotalRemoved() ||
		again.TotalAppended() != churn.TotalAppended() {
		t.Error("churn split is not deterministic")
	}
}

// An unknown solver is a per-row skip, not a harness failure.
func TestRunChurnUnknownSolver(t *testing.T) {
	spec, err := SpecFor("S")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunChurn(context.Background(), ChurnOptions{
		Scales:  []Spec{spec},
		Solvers: []string{"nosuch"},
		Steps:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Skipped == "" {
		t.Fatalf("rows = %+v, want one skipped row", rows)
	}
	if err := CheckChurn(rows); err != nil {
		t.Errorf("skipped row tripped a gate: %v", err)
	}
}
