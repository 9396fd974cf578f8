package psl

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// coverValues are the covers(θ,t) fractions the selection encoding
// produces: a candidate explains a tuple fully or in part.
var coverValues = []float64{1, 0.5, 1.0 / 3, 0.25, 2.0 / 3}

// selectionShape builds an MRF of the collective selection encoding
// from a seeded random shape: per tuple, covers from a few candidates;
// per candidate θ, a prior w·In(θ). In the pair form each tuple t is
// w₁·max(0, 1 − Explained(t)) with Explained(t) − Σ covers·In(θ) ≤ 0,
// in that order, then the priors. In the hinge form each tuple is the
// one hinge w₁·max(0, 1 − Σ covers·In(θ)), after the priors, as
// internal/core grounds it. Both forms of one seed share the shape.
func selectionShape(cands, tuples int, seed int64, pairs bool) *MRF {
	rng := rand.New(rand.NewSource(seed))
	m := NewMRF()
	in := make([]int, cands)
	for i := range in {
		in[i] = m.AtomVar("In", fmt.Sprintf("m%d", i))
	}
	covered := make([]int, cands)
	rows := make([][]LinTerm, tuples)
	for j := range rows {
		// Candidates compete locally, as alternatives for the same
		// target relations do: tuple j's covers come from a window of
		// four neighbouring candidates.
		base := j * cands / tuples
		for _, k := range rng.Perm(4)[:1+rng.Intn(3)] {
			i := (base + k) % cands
			covered[i]++
			rows[j] = append(rows[j], LinTerm{Var: in[i], Coef: -coverValues[rng.Intn(len(coverValues))]})
		}
	}
	priors := make([]Potential, cands)
	for i, v := range in {
		// Like generated scenarios: about half the candidates pay for
		// themselves (prior well below their coverage), the rest are
		// noise whose errors outweigh what they explain.
		w := 1 + 0.3*rng.Float64()*float64(covered[i])
		if rng.Intn(2) == 0 {
			w = 1 + (1+rng.Float64())*float64(covered[i])
		}
		priors[i] = Potential{Weight: w, Terms: []LinTerm{{Var: v, Coef: 1}}}
	}
	if pairs {
		for j, row := range rows {
			e := m.AtomVar("Explained", fmt.Sprintf("t%d", j))
			m.AddPotential(Potential{Weight: 1, Terms: []LinTerm{{Var: e, Coef: -1}}, Const: 1})
			_ = m.AddConstraint(Constraint{Terms: append([]LinTerm{{Var: e, Coef: 1}}, row...), Cmp: LE})
		}
	}
	for _, p := range priors {
		m.AddPotential(p)
	}
	if !pairs {
		for _, row := range rows {
			m.AddPotential(Potential{Weight: 1, Terms: row, Const: 1})
		}
	}
	return m
}

// selectionMRF is the hinge form of selectionShape, the MRF the
// collective solver hands to SolveMAP.
func selectionMRF(cands, tuples int, seed int64) *MRF {
	return selectionShape(cands, tuples, seed, false)
}

// selectionPairMRF is the pair form of selectionShape, the ground PSL
// program before its Explained atoms are eliminated.
func selectionPairMRF(cands, tuples int, seed int64) *MRF {
	return selectionShape(cands, tuples, seed, true)
}

// encodingDifferential solves the pair form and the hinge form of one
// selection program and checks that both converge to the same
// objective, and that the pair form's solution is feasible. The hinge
// form is the pair form presolved: each Explained atom's optimum is
// min(1, Σ covers·In), which turns its pair into the one hinge.
func encodingDifferential(t testing.TB, pairs, hinges *MRF) {
	t.Helper()
	if len(hinges.Constraints) != 0 || len(pairs.Constraints) == 0 {
		t.Fatalf("hinge form has %d constraints, pair form %d; want none and some",
			len(hinges.Constraints), len(pairs.Constraints))
	}
	opts := DefaultADMMOptions()
	opts.MaxIterations = 10000 // the pair form converges more slowly
	got, err := SolveMAP(context.Background(), hinges, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolveMAP(context.Background(), pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Converged || !want.Converged {
		t.Fatalf("not converged: hinge form %v, pair form %v", got.Converged, want.Converged)
	}
	// Both stop at residual Epsilon; the objectives agree to that
	// tolerance, relative to their size.
	if diff := math.Abs(got.Objective - want.Objective); diff > opts.Epsilon*math.Max(1, want.Objective) {
		t.Errorf("objective %.9f in hinge form, %.9f in pair form (diff %g)", got.Objective, want.Objective, diff)
	}
	t.Logf("%d pairs; objective %.6f vs %.6f; %d vs %d iterations",
		len(pairs.Constraints), got.Objective, want.Objective, got.Iterations, want.Iterations)
}

// The presolved (hinge) form of the selection encoding reaches the
// optimum of the pair form the PSL program grounds.
func TestPresolveMatchesBlocked(t *testing.T) {
	for _, tc := range []struct {
		cands, tuples int
		seed          int64
	}{{5, 12, 1}, {17, 100, 2}, {40, 400, 3}, {76, 1000, 4}} {
		t.Run(fmt.Sprintf("%dx%d", tc.cands, tc.tuples), func(t *testing.T) {
			encodingDifferential(t, selectionPairMRF(tc.cands, tc.tuples, tc.seed), selectionMRF(tc.cands, tc.tuples, tc.seed))
		})
	}
}

// A state captured on the hinge form holds one dual per hinge, keyed
// by potential slot; restoring it resumes at once, and tombstoned
// (nil) tuple-hinge slots — what a rebuilt hinge gets — fall back to
// the zero dual without changing the optimum.
func TestPresolveWarmStateRoundTrip(t *testing.T) {
	m := selectionMRF(17, 100, 6)
	opts := DefaultADMMOptions()
	opts.CaptureState = true
	cold, err := SolveMAP(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := cold.State
	if len(st.PotU) != len(m.Potentials) || len(st.ConsU) != 0 {
		t.Fatalf("captured %d potential and %d constraint duals, want %d and 0", len(st.PotU), len(st.ConsU), len(m.Potentials))
	}
	for pi, p := range m.Potentials {
		if len(st.PotU[pi]) != len(p.Terms) {
			t.Fatalf("PotU[%d] has %d entries, want the hinge's %d", pi, len(st.PotU[pi]), len(p.Terms))
		}
	}
	warmOpts := opts
	warmOpts.Warm = st
	warm, err := SolveMAP(context.Background(), m, warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if budget := max(2, cold.Iterations/10); warm.Iterations > budget {
		t.Errorf("warm resume took %d iterations, cold %d (budget %d)", warm.Iterations, cold.Iterations, budget)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-6*math.Max(1, cold.Objective) {
		t.Errorf("warm objective %v, cold %v", warm.Objective, cold.Objective)
	}

	tomb := *st
	tomb.PotU = append([][]float64(nil), st.PotU...)
	for pi := 17; pi < len(tomb.PotU); pi += 3 {
		tomb.PotU[pi] = nil
	}
	warmOpts.Warm = &tomb
	again, err := SolveMAP(context.Background(), m, warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(again.Objective-cold.Objective) > 1e-6*math.Max(1, cold.Objective) {
		t.Errorf("tombstoned warm objective %v, cold %v", again.Objective, cold.Objective)
	}
}

// Captured duals are windows into one backing array: rescaling a slot
// in place changes only that slot, and appending to one never spills
// into its neighbour.
func TestCapturedDualSlotsAreIsolated(t *testing.T) {
	opts := DefaultADMMOptions()
	opts.CaptureState = true
	sol, err := SolveMAP(context.Background(), warmTestMRF(), opts)
	if err != nil {
		t.Fatal(err)
	}
	st := sol.State
	next := st.PotU[1][0]
	_ = append(st.PotU[0], 42)
	if st.PotU[1][0] != next {
		t.Fatalf("append to PotU[0] overwrote PotU[1][0]: %v → %v", next, st.PotU[1][0])
	}
	before := append([]float64(nil), st.PotU[1]...)
	for k := range st.PotU[0] {
		st.PotU[0][k] *= 2
	}
	for k, v := range st.PotU[1] {
		if v != before[k] {
			t.Fatalf("rescaling PotU[0] changed PotU[1][%d]", k)
		}
	}
}

// Capturing state costs a constant number of allocations, not one per
// factor.
func TestADMMCaptureAllocs(t *testing.T) {
	m := selectionMRF(76, 1000, 7)
	opts := DefaultADMMOptions()
	opts.MaxIterations = 5
	solveAllocs := func(capture bool) float64 {
		o := opts
		o.CaptureState = capture
		return testing.AllocsPerRun(3, func() {
			if sol, err := SolveMAP(context.Background(), m, o); sol == nil {
				t.Fatal(err)
			}
		})
	}
	without, with := solveAllocs(false), solveAllocs(true)
	// The state, Z, the two slot tables and one dual array.
	if extra := with - without; extra > 5 {
		t.Fatalf("capturing state allocated %v extra times (%v vs %v); want ≤ 5", extra, with, without)
	}
}
