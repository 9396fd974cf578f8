package psl_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"schemamap/internal/core"
	"schemamap/internal/data"
	"schemamap/internal/ibench"
	"schemamap/internal/psl"
	"schemamap/internal/tgd"
)

// This file holds the paper-style PSL formulation of mapping
// selection: a PSL *program* (rules over predicates) that the rule
// grounder of oracle_ground_test.go grounds against a fact database.
// It is the test oracle for the collective solver's direct grounding
// (internal/core/grounding.go), which must produce exactly the same
// hinge-loss MRF. The program documents the model the way the paper
// presents it:
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
func buildPSLProgram(p *core.Problem) (*psl.Program, *psl.Database, error) {
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
	analyses := p.Analyses()
	for i := range analyses {
		m := fmt.Sprintf("m%d", i)
		db.AddTarget("In", m)
		for _, pr := range analyses[i].Pairs {
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
	for i := range analyses {
		a := &analyses[i]
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
func groundSelectionMRF(p *core.Problem) (*psl.MRF, error) {
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
func assertRuleGroundingMatchesDirect(t *testing.T, label string, p *core.Problem) {
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

// The two construction paths must produce MRFs with identical optima
// (they encode the same convex program).
func TestGroundSelectionMRFEquivalence(t *testing.T) {
	p := scenarioProblem(t, 4, 9, 25)
	viaRules, err := groundSelectionMRF(p)
	if err != nil {
		t.Fatal(err)
	}
	direct := p.SelectionMRF()
	s1, err := psl.SolveMAP(context.Background(), viaRules, psl.DefaultADMMOptions())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := psl.SolveMAP(context.Background(), direct, psl.DefaultADMMOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d := s1.Objective - s2.Objective; d > 1e-3 || d < -1e-3 {
		t.Errorf("MRF optima differ: rules %v vs direct %v", s1.Objective, s2.Objective)
	}
}

func TestBuildPSLProgramShape(t *testing.T) {
	p := appendixProblem()
	prog, db, err := buildPSLProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	// One explain rule plus one prior per candidate (both have cost).
	if got := len(prog.Rules()); got != 3 {
		t.Errorf("rules = %d, want 3", got)
	}
	mrf, err := psl.Ground(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	// Covered J tuples: task(ML,...) and org(111,SAP) → 2 explain
	// hinges; plus 2 priors.
	if got := len(mrf.Potentials); got != 4 {
		t.Errorf("potentials = %d, want 4", got)
	}
}

// scenarioProblem generates an ibench scenario with the given
// correspondence noise and wraps it in a Problem.
func scenarioProblem(t *testing.T, n int, seed int64, piCorresp float64) *core.Problem {
	t.Helper()
	cfg := ibench.DefaultConfig(n, seed)
	cfg.PiCorresp = piCorresp
	sc, err := ibench.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewProblem(sc.I, sc.J, sc.Candidates)
}

// scenarioProblems builds seeded noisy ibench scenarios — the workload
// the benchmark harness runs.
func scenarioProblems(t *testing.T) []*core.Problem {
	t.Helper()
	var out []*core.Problem
	for _, seed := range []int64{1, 5, 9} {
		cfg := ibench.DefaultConfig(7, seed)
		cfg.Rows = 8
		cfg.PiCorresp = 25
		cfg.PiErrors = 10
		cfg.PiUnexplained = 10
		sc, err := ibench.Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		out = append(out, core.NewProblem(sc.I, sc.J, sc.Candidates))
	}
	return out
}

// appendixProblem reconstructs the appendix §I running example.
func appendixProblem() *core.Problem {
	I := data.NewInstance()
	I.Add(data.NewTuple("proj", "BigData", "Bob", "IBM"))
	I.Add(data.NewTuple("proj", "ML", "Alice", "SAP"))
	J := data.NewInstance()
	J.Add(data.NewTuple("task", "ML", "Alice", "111"))
	J.Add(data.NewTuple("org", "111", "SAP"))
	J.Add(data.NewTuple("task", "Search", "Carol", "222"))
	J.Add(data.NewTuple("org", "222", "Google"))
	cands := tgd.Mapping{
		tgd.MustParse("proj(p,e,c) -> task(p,e,O)"),            // θ1
		tgd.MustParse("proj(p,e,c) -> task(p,e,O) & org(O,c)"), // θ3
	}
	return core.NewProblem(I, J, cands)
}

// hexF renders a float with exact bits, so the comparison tolerates
// no numeric drift whatsoever.
func hexF(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

// canonicalVarName maps an MRF variable name to an arrival-order-free
// key: In atoms are already stable (candidate indices are fixed), and
// Explained atoms are renamed from their tuple id to the tuple's
// printed form.
func canonicalVarName(t *testing.T, p *core.Problem, name string) string {
	t.Helper()
	const pfx = "Explained(t"
	if !strings.HasPrefix(name, pfx) {
		return name
	}
	j, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, pfx), ")"))
	if err != nil {
		t.Fatalf("unparsable Explained atom %q: %v", name, err)
	}
	return "Explained|" + p.JIndex().Tuples[j].String()
}

// canonicalMRF renders every potential and constraint of the MRF as a
// sorted list of strings with exact float bits and arrival-order-free
// variable names. Two MRFs over the same evidence must produce equal
// lists regardless of the order their factors were ground in.
func canonicalMRF(t *testing.T, p *core.Problem, m *psl.MRF) []string {
	t.Helper()
	names := m.VarNames()
	term := func(lt psl.LinTerm) string {
		return canonicalVarName(t, p, names[lt.Var]) + "*" + hexF(lt.Coef)
	}
	terms := func(lts []psl.LinTerm) string {
		parts := make([]string, len(lts))
		for i, lt := range lts {
			parts[i] = term(lt)
		}
		sort.Strings(parts)
		return strings.Join(parts, " + ")
	}
	out := make([]string, 0, len(m.Potentials)+len(m.Constraints))
	for _, pt := range m.Potentials {
		out = append(out, fmt.Sprintf("pot w=%s sq=%v c=%s | %s",
			hexF(pt.Weight), pt.Squared, hexF(pt.Const), terms(pt.Terms)))
	}
	for _, c := range m.Constraints {
		out = append(out, fmt.Sprintf("cons cmp=%d c=%s | %s",
			c.Cmp, hexF(c.Const), terms(c.Terms)))
	}
	sort.Strings(out)
	return out
}

func diffCanonical(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d factors, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: factor mismatch at canonical index %d:\n got  %s\n want %s",
				label, i, got[i], want[i])
		}
	}
}
