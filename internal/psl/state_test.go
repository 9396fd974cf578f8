package psl

import (
	"context"
	"math"
	"testing"
)

// TestADMMWarmStateResume is the core promise of the state surface: a
// re-solve of the same MRF warm-restarted from a captured state is a
// near-no-op — the first iterate already satisfies the residual check,
// so it converges in a tiny fraction of the cold iteration count at
// the same objective.
func TestADMMWarmStateResume(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    func() *MRF
	}{
		{"small", warmTestMRF},
		{"random", func() *MRF { return randomMRF(120, 500, 11) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultADMMOptions()
			opts.CaptureState = true
			cold, err := SolveMAP(context.Background(), tc.m(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if cold.State == nil {
				t.Fatal("CaptureState set but Solution.State is nil")
			}
			warmOpts := opts
			warmOpts.Warm = cold.State
			warm, err := SolveMAP(context.Background(), tc.m(), warmOpts)
			if err != nil {
				t.Fatal(err)
			}
			budget := cold.Iterations / 10
			if budget < 2 {
				budget = 2
			}
			if warm.Iterations > budget {
				t.Errorf("warm resume took %d iterations, cold took %d (budget %d)",
					warm.Iterations, cold.Iterations, budget)
			}
			if math.Abs(warm.Objective-cold.Objective) > 1e-6 {
				t.Errorf("warm objective %v, cold %v", warm.Objective, cold.Objective)
			}
		})
	}
}

// TestADMMWarmStateGrownMRF restores a state captured on a smaller MRF
// into a grown one: overlapping variables and untouched factor slots
// resume from the captured values, appended ones start cold, and the
// solve still reaches the grown problem's optimum.
func TestADMMWarmStateGrownMRF(t *testing.T) {
	build := func(grown bool) *MRF {
		m := warmTestMRF()
		if grown {
			d := m.Var("d")
			m.AddPotential(Potential{Weight: 1, Terms: []LinTerm{{Var: d, Coef: -1}}, Const: 0.5})
			_ = m.AddConstraint(Constraint{Terms: []LinTerm{{Var: 2, Coef: 1}, {Var: d, Coef: -1}}, Cmp: LE})
		}
		return m
	}
	opts := DefaultADMMOptions()
	opts.CaptureState = true
	small, err := SolveMAP(context.Background(), build(false), opts)
	if err != nil {
		t.Fatal(err)
	}
	coldGrown, err := SolveMAP(context.Background(), build(true), DefaultADMMOptions())
	if err != nil {
		t.Fatal(err)
	}
	warmOpts := DefaultADMMOptions()
	warmOpts.Warm = small.State
	warmGrown, err := SolveMAP(context.Background(), build(true), warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warmGrown.Objective-coldGrown.Objective) > 1e-5 {
		t.Errorf("grown warm objective %v, cold %v", warmGrown.Objective, coldGrown.Objective)
	}
}

// TestADMMWarmStateInvalidatedSlots nils out dual slots (the
// invalidation convention incremental re-grounding uses for rebuilt
// factors) and length-mismatches another; the solve must skip them and
// still reach the optimum.
func TestADMMWarmStateInvalidatedSlots(t *testing.T) {
	opts := DefaultADMMOptions()
	opts.CaptureState = true
	cold, err := SolveMAP(context.Background(), warmTestMRF(), opts)
	if err != nil {
		t.Fatal(err)
	}
	st := cold.State
	st.PotU[0] = nil
	st.PotU[1] = st.PotU[1][:1] // length mismatch: must be skipped, not crash
	if len(st.ConsU) > 0 {
		st.ConsU[0] = nil
	}
	warmOpts := DefaultADMMOptions()
	warmOpts.Warm = st
	warm, err := SolveMAP(context.Background(), warmTestMRF(), warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-5 {
		t.Errorf("invalidated-slot warm objective %v, cold %v", warm.Objective, cold.Objective)
	}
}
