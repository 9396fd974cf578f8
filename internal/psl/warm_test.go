package psl

import (
	"context"
	"math"
	"strings"
	"testing"
)

// warmTestMRF is a small MRF with conflicting hinges (a chain would
// converge instantly and measure nothing).
func warmTestMRF() *MRF {
	m := NewMRF()
	a := m.Var("a")
	b := m.Var("b")
	c := m.Var("c")
	m.AddPotential(Potential{Weight: 2, Terms: []LinTerm{{Var: a, Coef: -1}}, Const: 1})
	m.AddPotential(Potential{Weight: 1, Terms: []LinTerm{{Var: a, Coef: 1}, {Var: b, Coef: -1}}})
	m.AddPotential(Potential{Weight: 1.5, Terms: []LinTerm{{Var: b, Coef: 1}, {Var: c, Coef: -1}}, Const: -0.25})
	m.AddPotential(Potential{Weight: 0.5, Terms: []LinTerm{{Var: c, Coef: 1}}, Const: -0.5, Squared: true})
	_ = m.AddConstraint(Constraint{Terms: []LinTerm{{Var: a, Coef: 1}, {Var: c, Coef: -1}}, Cmp: LE})
	return m
}

// ADMMOptions.Initial must not change the optimum (the problem is
// convex): whatever point inference starts from — the prior solution,
// out-of-range values, or a malformed slice — it must land on the
// cold-start objective. (Iteration counts are not asserted: with
// duals reset to zero a warm primal is not guaranteed fewer
// iterations on arbitrary MRFs; the streaming benchmark measures the
// realised effect on the selection MRFs.)
func TestADMMInitialPoint(t *testing.T) {
	opts := DefaultADMMOptions()
	opts.Epsilon = 1e-8
	cold, err := SolveMAP(context.Background(), warmTestMRF(), opts)
	if err != nil {
		t.Fatal(err)
	}
	warmOpts := opts
	warmOpts.Initial = cold.X
	warm, err := SolveMAP(context.Background(), warmTestMRF(), warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-6 {
		t.Errorf("warm objective %v, cold %v", warm.Objective, cold.Objective)
	}
	// Out-of-range initial values are clamped, not propagated.
	clampOpts := opts
	clampOpts.Initial = []float64{-5, 7, 0.5}
	sol, err := SolveMAP(context.Background(), warmTestMRF(), clampOpts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-cold.Objective) > 1e-5 {
		t.Errorf("clamped-initial objective %v, cold %v", sol.Objective, cold.Objective)
	}
	// A wrong-length Initial is a caller bug — silently falling back
	// to the default start used to hide broken warm-start plumbing, so
	// it is now a descriptive error.
	badOpts := opts
	badOpts.Initial = []float64{0.1}
	sol, err = SolveMAP(context.Background(), warmTestMRF(), badOpts)
	if err == nil {
		t.Fatal("wrong-length Initial: want error, got nil")
	}
	if sol != nil {
		t.Fatalf("wrong-length Initial: want nil solution, got %+v", sol)
	}
	if !strings.Contains(err.Error(), "Initial") || !strings.Contains(err.Error(), "variables") {
		t.Errorf("wrong-length Initial: undescriptive error %q", err)
	}
}
