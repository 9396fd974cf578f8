package core

import (
	"context"
	"testing"

	"schemamap/internal/data"
	"schemamap/internal/psl"
	"schemamap/internal/tgd"
)

// Degenerate problems must not panic and must return sensible empty
// results from every solver.

func degenerateSolvers() []Solver {
	return []Solver{
		ExhaustiveSolver{},
		GreedySolver{},
		IndependentSolver{},
		CollectiveSolver{},
	}
}

func TestSolversOnNoCandidates(t *testing.T) {
	I := data.NewInstance()
	I.Add(data.NewTuple("r", "a"))
	J := data.NewInstance()
	J.Add(data.NewTuple("s", "a"))
	p := NewProblem(I, J, nil)
	for _, s := range degenerateSolvers() {
		sel, err := s.Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if sel.Count() != 0 {
			t.Errorf("%s selected from empty C", s.Name())
		}
		if !approx(sel.Objective.Total(), 1) { // one unexplained tuple
			t.Errorf("%s objective %v, want 1", s.Name(), sel.Objective.Total())
		}
	}
}

func TestSolversOnEmptyJ(t *testing.T) {
	I := data.NewInstance()
	I.Add(data.NewTuple("r", "a"))
	p := NewProblem(I, data.NewInstance(), tgd.Mapping{tgd.MustParse("r(x) -> s(x)")})
	for _, s := range degenerateSolvers() {
		sel, err := s.Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		// Nothing to explain: selecting anything only costs.
		if sel.Count() != 0 {
			t.Errorf("%s selected candidates with empty J", s.Name())
		}
		if !approx(sel.Objective.Total(), 0) {
			t.Errorf("%s objective %v, want 0", s.Name(), sel.Objective.Total())
		}
	}
}

func TestSolversOnEmptyI(t *testing.T) {
	J := data.NewInstance()
	J.Add(data.NewTuple("s", "a"))
	p := NewProblem(data.NewInstance(), J, tgd.Mapping{tgd.MustParse("r(x) -> s(x)")})
	for _, s := range degenerateSolvers() {
		sel, err := s.Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if sel.Count() != 0 {
			t.Errorf("%s selected a candidate that can never fire", s.Name())
		}
	}
}

// A starved ADMM budget must not crash the collective solver; the
// rounding + repair stages still produce a valid (possibly
// suboptimal) selection.
func TestCollectiveWithStarvedADMM(t *testing.T) {
	p := appendixProblem()
	for i := 0; i < 6; i++ {
		name := "X" + string(rune('a'+i))
		p.I.Add(data.NewTuple("proj", name, "Alice", "SAP"))
		p.J.Add(data.NewTuple("task", name, "Alice", "111"))
	}
	s := CollectiveSolver{ADMM: psl.ADMMOptions{MaxIterations: 3, Rho: 1, Epsilon: 1e-5}}
	sel, err := s.Solve(context.Background(), p)
	if err != nil {
		t.Fatalf("starved ADMM: %v", err)
	}
	// Repair should still reach the optimum on this tiny instance.
	exact, err := ExhaustiveSolver{}.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Objective.Total() > exact.Objective.Total()+1e-9 {
		t.Errorf("starved collective F=%v, exact F=%v", sel.Objective.Total(), exact.Objective.Total())
	}
}

// Zero-weight objective components are tolerated.
func TestZeroWeights(t *testing.T) {
	p := appendixProblem()
	p.Weights = Weights{Explain: 1, Error: 0, Size: 0}
	sel, err := CollectiveSolver{}.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	// With free errors and size, selecting the best explainer is
	// always right: θ3 covers two tuples fully.
	if !sel.Chosen[1] {
		t.Errorf("with w2=w3=0 the solver should select θ3, got %v", sel.Indices())
	}
}

// Duplicate candidates must not confuse the collective solvers —
// exactly one copy gets selected. (The independent baseline takes
// every profitable copy by design; that over-selection is asserted in
// TestIndependentOverSelects.)
func TestDuplicateCandidates(t *testing.T) {
	p := appendixProblem()
	dup := *p.Candidates[1]
	p.Candidates = append(p.Candidates, &dup)
	for i := 0; i < 6; i++ {
		name := "X" + string(rune('a'+i))
		p.I.Add(data.NewTuple("proj", name, "Alice", "SAP"))
		p.J.Add(data.NewTuple("task", name, "Alice", "111"))
	}
	solvers := []Solver{
		ExhaustiveSolver{},
		GreedySolver{},
		CollectiveSolver{},
	}
	for _, s := range solvers {
		sel, err := s.Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		// Exactly one copy of θ3 should be selected.
		if n := sel.Count(); n != 1 {
			t.Errorf("%s selected %d candidates, want 1 (picked %v)", s.Name(), n, sel.Indices())
		}
	}
}
