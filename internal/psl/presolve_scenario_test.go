package psl_test

import (
	"fmt"
	"testing"

	"schemamap/internal/core"
	"schemamap/internal/ibench"
	"schemamap/internal/psl"
)

// The encoding differential on real groundings: the rule oracle's
// pair form against the direct hinge form, on M-scale generated
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
			p := core.NewProblem(sc.I, sc.J, sc.Candidates)
			pairs, err := groundSelectionMRF(p)
			if err != nil {
				t.Fatal(err)
			}
			psl.EncodingDifferential(t, pairs, p.SelectionMRF())
		})
	}
}

// Presolving the pair form yields the hinge form bit for bit: every
// Explained atom goes, and each tuple's merged hinge is
// w₁·max(0, 1 − Σ covers·In) with the same coefficients.
func TestPresolveMergedHingeExact(t *testing.T) {
	pairs := psl.SelectionPairMRF(9, 30, 5)
	got, n := presolve(pairs)
	if n != 30 {
		t.Fatalf("eliminated %d Explained atoms, want 30", n)
	}
	if len(got.Constraints) != 0 || got.NumVars() != 9 {
		t.Fatalf("presolved form has %d constraints and %d variables, want 0 and 9", len(got.Constraints), got.NumVars())
	}
	diffCanonical(t, "9x30", canonicalMRF(got), canonicalMRF(psl.SelectionMRF(9, 30, 5)))
}

// Every shape outside the elimination rule is left unchanged; the
// base shape itself is eliminated.
func TestPresolveIneligibleShapes(t *testing.T) {
	// x, y are selection variables, e the auxiliary:
	// 1·max(0, 1 − e), e − 0.5x − 0.5y ≤ 0, priors on x and y.
	base := func() *psl.MRF {
		m := psl.NewMRF()
		x, y, e := m.Var("x"), m.Var("y"), m.Var("e")
		m.Potentials = []psl.Potential{
			{Weight: 1, Terms: []psl.LinTerm{{Var: e, Coef: -1}}, Const: 1},
			{Weight: 0.3, Terms: []psl.LinTerm{{Var: x, Coef: 1}}},
			{Weight: 0.4, Terms: []psl.LinTerm{{Var: y, Coef: 1}}},
		}
		m.Constraints = []psl.Constraint{
			{Terms: []psl.LinTerm{{Var: e, Coef: 1}, {Var: x, Coef: -0.5}, {Var: y, Coef: -0.5}}, Cmp: psl.LE},
		}
		return m
	}
	if got, n := presolve(base()); n != 1 || len(got.Potentials) != 3 || len(got.Constraints) != 0 {
		t.Fatalf("base shape: eliminated %d, %d potentials and %d constraints; want 1, 3 and 0",
			n, len(got.Potentials), len(got.Constraints))
	}
	for _, tc := range []struct {
		name   string
		mutate func(m *psl.MRF)
	}{
		{"squared hinge", func(m *psl.MRF) { m.Potentials[0].Squared = true }},
		{"EQ constraint", func(m *psl.MRF) { m.Constraints[0].Cmp = psl.EQ }},
		{"positive other coefficient", func(m *psl.MRF) { m.Constraints[0].Terms[2].Coef = 0.5 }},
		{"positive constraint constant", func(m *psl.MRF) { m.Constraints[0].Const = 0.1 }},
		{"third factor", func(m *psl.MRF) {
			m.Potentials = append(m.Potentials, psl.Potential{Weight: 0.1, Terms: []psl.LinTerm{{Var: 2, Coef: 1}}})
		}},
		{"hinge positive at e = 1", func(m *psl.MRF) { m.Potentials[0].Const = 1.5 }},
		{"hinge increasing in e", func(m *psl.MRF) { m.Potentials[0].Terms[0].Coef = 1; m.Potentials[0].Const = 0 }},
		{"hinge with a second term", func(m *psl.MRF) {
			m.Potentials[0].Terms = append(m.Potentials[0].Terms, psl.LinTerm{Var: 0, Coef: -0.1})
		}},
		{"negative coefficient on e in the constraint", func(m *psl.MRF) {
			m.Constraints[0].Terms[0].Coef = -1
			m.Constraints[0].Terms[1].Coef = 0.5
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := base()
			tc.mutate(m)
			got, n := presolve(m)
			if n != 0 {
				t.Fatalf("eliminated %d atoms; want none", n)
			}
			diffCanonical(t, tc.name, canonicalMRF(got), canonicalMRF(m))
		})
	}
}
