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

// selectionMRF builds an MRF of the collective selection encoding:
// per tuple t, w₁·max(0, 1 − Explained(t)) and
// Explained(t) − Σ covers·In(θ) ≤ 0; per candidate θ, a prior
// w·In(θ). Factor order follows the direct grounding: each tuple's
// potential and constraint, then the priors.
func selectionMRF(cands, tuples int, seed int64) *MRF {
	rng := rand.New(rand.NewSource(seed))
	m := NewMRF()
	in := make([]int, cands)
	for i := range in {
		in[i] = m.AtomVar("In", fmt.Sprintf("m%d", i))
	}
	covered := make([]int, cands)
	for j := 0; j < tuples; j++ {
		e := m.AtomVar("Explained", fmt.Sprintf("t%d", j))
		m.AddPotential(Potential{Weight: 1, Terms: []LinTerm{{Var: e, Coef: -1}}, Const: 1})
		terms := []LinTerm{{Var: e, Coef: 1}}
		// Candidates compete locally, as alternatives for the same
		// target relations do: tuple j's covers come from a window of
		// four neighbouring candidates.
		base := j * cands / tuples
		for _, k := range rng.Perm(4)[:1+rng.Intn(3)] {
			i := (base + k) % cands
			covered[i]++
			terms = append(terms, LinTerm{Var: in[i], Coef: -coverValues[rng.Intn(len(coverValues))]})
		}
		_ = m.AddConstraint(Constraint{Terms: terms, Cmp: LE})
	}
	for i, v := range in {
		// Like generated scenarios: about half the candidates pay for
		// themselves (prior well below their coverage), the rest are
		// noise whose errors outweigh what they explain.
		w := 1 + 0.3*rng.Float64()*float64(covered[i])
		if rng.Intn(2) == 0 {
			w = 1 + (1+rng.Float64())*float64(covered[i])
		}
		m.AddPotential(Potential{Weight: w, Terms: []LinTerm{{Var: v, Coef: 1}}})
	}
	return m
}

// blockElimination returns a copy of m in which every variable the
// presolve would eliminate gets a zero-weight third factor, so the
// copy compiles without elimination but has the same optimum.
func blockElimination(m *MRF) *MRF {
	_, elim := presolve(m)
	b := &MRF{
		varNames:    m.varNames,
		varIndex:    m.varIndex,
		Potentials:  append([]Potential(nil), m.Potentials...),
		Constraints: m.Constraints,
	}
	for _, e := range elim {
		// Appended directly: AddPotential drops zero-weight hinges.
		b.Potentials = append(b.Potentials, Potential{Terms: []LinTerm{{Var: int(e.v), Coef: 1}}})
	}
	return b
}

// linkCap is S = (−c_C − Σ d·x)/b for variable v's linking
// constraint c, evaluated at x.
func linkCap(c Constraint, v int, x []float64) float64 {
	s := -c.Const
	for _, t := range c.Terms {
		if t.Var != v {
			s -= t.Coef * x[t.Var]
		}
	}
	return s / coefOf(c.Terms, v)
}

// presolveDifferential solves m with and without elimination and
// checks the objectives agree, each eliminated variable sits at
// min(1, S), and the solution is feasible on the full MRF.
func presolveDifferential(t testing.TB, m *MRF) {
	t.Helper()
	_, elim := presolve(m)
	if len(elim) == 0 {
		t.Fatal("nothing to eliminate: not a selection-shaped MRF")
	}
	blocked := blockElimination(m)
	if _, be := presolve(blocked); len(be) != 0 {
		t.Fatalf("blocked copy still eliminates %d variables", len(be))
	}
	opts := DefaultADMMOptions()
	opts.MaxIterations = 10000 // the blocked copy converges more slowly
	got, err := SolveMAP(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolveMAP(context.Background(), blocked, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Converged || !want.Converged {
		t.Fatalf("not converged: eliminated %v, blocked %v", got.Converged, want.Converged)
	}
	// Both stop at residual Epsilon; the objectives agree to that
	// tolerance, relative to their size.
	if diff := math.Abs(got.Objective - want.Objective); diff > opts.Epsilon*math.Max(1, want.Objective) {
		t.Errorf("objective %.9f with elimination, %.9f without (diff %g)", got.Objective, want.Objective, diff)
	}
	for _, e := range elim {
		if w := math.Min(1, linkCap(m.Constraints[e.cons], int(e.v), got.X)); got.X[e.v] != w {
			t.Fatalf("eliminated X[%d] = %v, want min(1, S) = %v", e.v, got.X[e.v], w)
		}
	}
	if !m.Feasible(got.X, 1e-9) {
		t.Error("solution with eliminated variables is infeasible on the full MRF")
	}
	t.Logf("%d variables eliminated; objective %.6f vs %.6f; %d vs %d iterations",
		len(elim), got.Objective, want.Objective, got.Iterations, want.Iterations)
}

func TestPresolveMatchesBlocked(t *testing.T) {
	for _, tc := range []struct {
		cands, tuples int
		seed          int64
	}{{5, 12, 1}, {17, 100, 2}, {40, 400, 3}, {76, 1000, 4}} {
		t.Run(fmt.Sprintf("%dx%d", tc.cands, tc.tuples), func(t *testing.T) {
			presolveDifferential(t, selectionMRF(tc.cands, tc.tuples, tc.seed))
		})
	}
}

// The selection encoding's merged hinge is w₁·max(0, 1 − Σ covers·In)
// bit for bit: the same coefficients, constant 1, weight w₁.
func TestPresolveMergedHingeExact(t *testing.T) {
	m := selectionMRF(9, 30, 5)
	fs := buildFactorSet(m)
	if len(fs.elim) != 30 {
		t.Fatalf("eliminated %d variables, want 30", len(fs.elim))
	}
	for ci, c := range m.Constraints {
		fi := fs.consFactor[ci]
		if fs.kind[fi] != kindHinge || fs.konst[fi] != 1 || fs.weight[fi] != 1 {
			t.Fatalf("constraint %d: kind %d konst %v weight %v, want hinge/1/1", ci, fs.kind[fi], fs.konst[fi], fs.weight[fi])
		}
		lo, hi := fs.off[fi], fs.off[fi+1]
		if int(hi-lo) != len(c.Terms)-1 {
			t.Fatalf("constraint %d: %d merged terms, want %d", ci, hi-lo, len(c.Terms)-1)
		}
		for k, tm := range c.Terms[1:] {
			if int(fs.vars[lo+int32(k)]) != tm.Var || fs.coefs[lo+int32(k)] != tm.Coef {
				t.Fatalf("constraint %d term %d: got %v·x%d, want %v·x%d",
					ci, k, fs.coefs[lo+int32(k)], fs.vars[lo+int32(k)], tm.Coef, tm.Var)
			}
		}
	}
	for pi := 0; pi < 30; pi++ {
		if fs.potFactor[pi] != -1 {
			t.Fatalf("Explained potential %d compiled to factor %d, want eliminated", pi, fs.potFactor[pi])
		}
	}
}

// compiledPlain reports whether fs is m compiled factor by factor in
// slot order, with nothing eliminated.
func compiledPlain(fs *factorSet, m *MRF) bool {
	if len(fs.elim) != 0 || fs.len() != len(m.Potentials)+len(m.Constraints) {
		return false
	}
	check := func(fi int32, terms []LinTerm, konst float64, kind uint8) bool {
		lo, hi := fs.off[fi], fs.off[fi+1]
		if int(hi-lo) != len(terms) || fs.konst[fi] != konst || fs.kind[fi] != kind {
			return false
		}
		for k, t := range terms {
			if int(fs.vars[lo+int32(k)]) != t.Var || fs.coefs[lo+int32(k)] != t.Coef {
				return false
			}
		}
		return true
	}
	for pi, p := range m.Potentials {
		kind := uint8(kindHinge)
		if p.Squared {
			kind = kindSquared
		}
		if fs.potFactor[pi] != int32(pi) || !check(int32(pi), p.Terms, p.Const, kind) {
			return false
		}
	}
	for ci, c := range m.Constraints {
		kind := uint8(kindConsEQ)
		if c.Cmp == LE {
			kind = kindConsLE
		}
		fi := int32(len(m.Potentials) + ci)
		if fs.consFactor[ci] != fi || !check(fi, c.Terms, c.Const, kind) {
			return false
		}
	}
	return true
}

// Every shape outside the elimination rule compiles unchanged; the
// base shape itself is eliminated.
func TestPresolveIneligibleShapes(t *testing.T) {
	// x, y are selection variables, e the auxiliary:
	// 1·max(0, 1 − e), e − 0.5x − 0.5y ≤ 0, priors on x and y.
	base := func() *MRF {
		m := NewMRF()
		x, y, e := m.Var("x"), m.Var("y"), m.Var("e")
		m.Potentials = []Potential{
			{Weight: 1, Terms: []LinTerm{{Var: e, Coef: -1}}, Const: 1},
			{Weight: 0.3, Terms: []LinTerm{{Var: x, Coef: 1}}},
			{Weight: 0.4, Terms: []LinTerm{{Var: y, Coef: 1}}},
		}
		m.Constraints = []Constraint{
			{Terms: []LinTerm{{Var: e, Coef: 1}, {Var: x, Coef: -0.5}, {Var: y, Coef: -0.5}}, Cmp: LE},
		}
		return m
	}
	if fs := buildFactorSet(base()); len(fs.elim) != 1 || fs.len() != 3 {
		t.Fatalf("base shape: eliminated %d, %d factors; want 1 and 3", len(fs.elim), fs.len())
	}
	for _, tc := range []struct {
		name   string
		mutate func(m *MRF)
	}{
		{"squared hinge", func(m *MRF) { m.Potentials[0].Squared = true }},
		{"EQ constraint", func(m *MRF) { m.Constraints[0].Cmp = EQ }},
		{"positive other coefficient", func(m *MRF) { m.Constraints[0].Terms[2].Coef = 0.5 }},
		{"positive constraint constant", func(m *MRF) { m.Constraints[0].Const = 0.1 }},
		{"third factor", func(m *MRF) {
			m.Potentials = append(m.Potentials, Potential{Weight: 0.1, Terms: []LinTerm{{Var: 2, Coef: 1}}})
		}},
		{"hinge positive at e = 1", func(m *MRF) { m.Potentials[0].Const = 1.5 }},
		{"hinge increasing in e", func(m *MRF) { m.Potentials[0].Terms[0].Coef = 1; m.Potentials[0].Const = 0 }},
		{"hinge with a second term", func(m *MRF) {
			m.Potentials[0].Terms = append(m.Potentials[0].Terms, LinTerm{Var: 0, Coef: -0.1})
		}},
		{"negative coefficient on e in the constraint", func(m *MRF) {
			m.Constraints[0].Terms[0].Coef = -1
			m.Constraints[0].Terms[1].Coef = 0.5
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := base()
			tc.mutate(m)
			if fs := buildFactorSet(m); !compiledPlain(fs, m) {
				t.Fatalf("compiled with %d eliminated variables and %d factors; want the plain slot-order compile",
					len(fs.elim), fs.len())
			}
		})
	}
}

// A state captured across a merged factor keeps the eliminated hinge's
// PotU slot nil and the merged dual under the linking constraint's
// ConsU slot; restoring it resumes at once, and a tombstoned (nil)
// ConsU slot falls back to the zero dual without changing the optimum.
func TestPresolveWarmStateRoundTrip(t *testing.T) {
	m := selectionMRF(17, 100, 6)
	opts := DefaultADMMOptions()
	opts.CaptureState = true
	cold, err := SolveMAP(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := cold.State
	for ci, c := range m.Constraints {
		if st.PotU[ci] != nil {
			t.Fatalf("eliminated potential %d captured a dual", ci)
		}
		if len(st.ConsU[ci]) != len(c.Terms)-1 {
			t.Fatalf("ConsU[%d] has %d entries, want the merged factor's %d", ci, len(st.ConsU[ci]), len(c.Terms)-1)
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
	tomb.ConsU = append([][]float64(nil), st.ConsU...)
	for ci := 0; ci < len(tomb.ConsU); ci += 3 {
		tomb.ConsU[ci] = nil
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
