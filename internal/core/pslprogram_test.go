package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"schemamap/internal/psl"
)

// This file holds the paper-style PSL formulation of mapping
// selection: a PSL *program* (rules over predicates) that the rule
// grounder grounds against a fact database. It is the test oracle for
// the collective solver's direct grounding (grounding.go), which must
// produce exactly the same hinge-loss MRF. The program documents the
// model the way the paper presents it:
//
//	predicates:
//	  JTuple/1     closed  — the tuples of the data example J
//	  Covers/2     closed  — covers(θ, t), the Eq. (9) evidence
//	  In/1         open    — θ is selected
//	  Explained/1  open    — t is explained by the selection
//
//	rules:
//	  w₁ :  JTuple(T) -> Explained(T)          (explain the data)
//	  cᵢ :  !In('mᵢ')                          (per-candidate prior,
//	         cᵢ = w₂·errors(θᵢ) + w₃·size(θᵢ))
//	  arithmetic:  Explained(t) ≤ Σ_θ covers(θ,t)·In(θ)
//	         (PSL summation rule; added as hard linear constraints)

// buildPSLProgram constructs the program and database for the
// problem. Candidate θᵢ is named "m{i}" and J tuple j "t{j}".
func buildPSLProgram(p *Problem) (*psl.Program, *psl.Database, error) {
	p.Prepare()
	prog := psl.NewProgram()
	if err := prog.AddPredicate("JTuple", 1, psl.Closed); err != nil {
		return nil, nil, err
	}
	if err := prog.AddPredicate("Covers", 2, psl.Closed); err != nil {
		return nil, nil, err
	}
	if err := prog.AddPredicate("In", 1, psl.Open); err != nil {
		return nil, nil, err
	}
	if err := prog.AddPredicate("Explained", 1, psl.Open); err != nil {
		return nil, nil, err
	}

	db := psl.NewDatabase()
	for i := range p.analyses {
		m := fmt.Sprintf("m%d", i)
		db.AddTarget("In", m)
		for _, pr := range p.analyses[i].Pairs {
			db.Observe("Covers", []string{m, fmt.Sprintf("t%d", pr.J)}, pr.Cov)
		}
	}
	// Only non-certain tuples enter the program (Section III-C), in
	// deterministic tuple order off the inverted incidence.
	inc := p.Incidence()
	for j := 0; j < inc.NumTuples(); j++ {
		if cands, _ := inc.Row(j); len(cands) == 0 {
			continue
		}
		tj := fmt.Sprintf("t%d", j)
		db.Observe("JTuple", []string{tj}, 1)
		db.AddTarget("Explained", tj)
	}

	// Explanation reward.
	explainRule, err := psl.ParseRule(fmt.Sprintf("%g: JTuple(T) -> Explained(T)", p.Weights.Explain))
	if err != nil {
		return nil, nil, err
	}
	if err := prog.AddRule(explainRule); err != nil {
		return nil, nil, err
	}
	// Per-candidate priors.
	for i := range p.analyses {
		a := &p.analyses[i]
		cost := p.Weights.Error*a.Errors + p.Weights.Size*float64(a.Size)
		if cost <= 0 {
			continue
		}
		r, err := psl.ParseRule(fmt.Sprintf("%g: !In('m%d')", cost, i))
		if err != nil {
			return nil, nil, err
		}
		if err := prog.AddRule(r); err != nil {
			return nil, nil, err
		}
	}
	return prog, db, nil
}

// groundSelectionMRF grounds the program and adds the arithmetic
// linking constraints, returning the MRF ready for MAP inference.
func groundSelectionMRF(p *Problem) (*psl.MRF, error) {
	prog, db, err := buildPSLProgram(p)
	if err != nil {
		return nil, err
	}
	mrf, err := psl.Ground(prog, db)
	if err != nil {
		return nil, err
	}
	// PSL arithmetic rule: Explained(t) ≤ Σ_θ covers(θ,t)·In(θ),
	// straight off the inverted incidence.
	inc := p.Incidence()
	for j := 0; j < inc.NumTuples(); j++ {
		cands, covs := inc.Row(j)
		if len(cands) == 0 {
			continue
		}
		ev := mrf.AtomVar("Explained", fmt.Sprintf("t%d", j))
		terms := []psl.LinTerm{{Var: ev, Coef: 1}}
		for k, i := range cands {
			iv := mrf.AtomVar("In", fmt.Sprintf("m%d", i))
			terms = append(terms, psl.LinTerm{Var: iv, Coef: -covs[k]})
		}
		if err := mrf.AddConstraint(psl.Constraint{Terms: terms, Cmp: psl.LE}); err != nil {
			return nil, err
		}
	}
	return mrf, nil
}

// assertRuleGroundingMatchesDirect checks that grounding the paper's
// PSL program yields exactly the MRF the collective solver grounds
// directly: the same variable names, and the same potentials (weight,
// terms by variable name, constant) and constraints as multisets,
// compared with exact float bits.
func assertRuleGroundingMatchesDirect(t *testing.T, label string, p *Problem) {
	t.Helper()
	viaRules, err := groundSelectionMRF(p)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	direct := p.SelectionMRF()
	gotNames, wantNames := viaRules.VarNames(), direct.VarNames()
	sort.Strings(gotNames)
	sort.Strings(wantNames)
	if !reflect.DeepEqual(gotNames, wantNames) {
		t.Fatalf("%s: rule grounding has variables %v, direct %v", label, gotNames, wantNames)
	}
	if len(direct.Potentials) == 0 || len(direct.Constraints) == 0 {
		t.Fatalf("%s: degenerate grounding (%d potentials, %d constraints)",
			label, len(direct.Potentials), len(direct.Constraints))
	}
	diffCanonical(t, label, canonicalMRF(t, p, viaRules), canonicalMRF(t, p, direct))
}

// TestRuleGroundingMatchesDirect runs the exact oracle comparison on
// scenarios with half the correspondences noisy.
func TestRuleGroundingMatchesDirect(t *testing.T) {
	for _, seed := range []int64{3, 4, 5} {
		assertRuleGroundingMatchesDirect(t, fmt.Sprintf("seed %d", seed), scenarioProblem(t, 7, seed, 50))
	}
}

// TestScenarioGroundingMatchesReference runs the exact oracle
// comparison on the noisy benchmark-style scenarios.
func TestScenarioGroundingMatchesReference(t *testing.T) {
	for i, p := range scenarioProblems(t) {
		assertRuleGroundingMatchesDirect(t, fmt.Sprintf("problem %d", i), p)
	}
}
