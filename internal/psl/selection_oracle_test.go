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
// (internal/core/grounding.go): grounding the program and presolving
// it (eliminating each Explained atom, see presolve) must produce
// exactly the hinge-loss MRF the direct grounding builds. The program
// documents the model the way the paper presents it:
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

// presolve eliminates the auxiliary atoms of a ground selection
// program. An atom e is eliminated when it occurs exactly twice:
//
//   - as the only term of a linear hinge w·max(0, c_P + a·e) with
//     w > 0, a < 0 and c_P + a ≤ 0, and
//   - in an LE constraint b·e + Σ d·x + c_C ≤ 0 with b > 0, every
//     d ≤ 0 and c_C ≤ 0.
//
// The hinge is non-increasing in e, and the constraint caps e at
// S = (−c_C − Σ d·x)/b ≥ 0, so e's optimum is min(1, S) and the pair
// is exactly the one hinge w·max(0, c_P − (a/b)·c_C − (a/b)·Σ d·x):
// both vanish once S ≥ 1 (because c_P + a ≤ 0) and agree below it.
// This is the capped-sum LP of Bach et al. (JMLR 2017): the PSL pair
// w₁·max(0, 1 − Explained(t)), Explained(t) ≤ Σ covers·In(θ) becomes
// w₁·max(0, 1 − Σ covers·In(θ)).
//
// presolve returns a new MRF without the eliminated atoms — the
// remaining potentials, then one merged hinge per eliminated atom in
// constraint order, then the remaining constraints — and the number
// of atoms it eliminated.
func presolve(m *psl.MRF) (*psl.MRF, int) {
	names := m.VarNames()
	occ := make([]int, len(names))
	hinge := make([]int, len(names)) // 1 + slot of a hinge e can be eliminated from
	for pi, p := range m.Potentials {
		for _, t := range p.Terms {
			occ[t.Var]++
		}
		if !p.Squared && p.Weight > 0 && len(p.Terms) == 1 &&
			p.Terms[0].Coef < 0 && p.Const+p.Terms[0].Coef <= 0 {
			hinge[p.Terms[0].Var] = pi + 1
		}
	}
	for _, c := range m.Constraints {
		for _, t := range c.Terms {
			occ[t.Var]++
		}
	}
	elim := make([]int, len(m.Constraints)) // 1 + the atom constraint ci eliminates
	dropped := make([]bool, len(names))
	droppedPot := make([]bool, len(m.Potentials))
	n := 0
	for ci, c := range m.Constraints {
		if c.Cmp != psl.LE || c.Const > 0 {
			continue
		}
		e, positives := -1, 0
		for _, t := range c.Terms {
			if t.Coef > 0 {
				e = t.Var
				positives++
			}
		}
		if positives != 1 || occ[e] != 2 || hinge[e] == 0 {
			continue
		}
		elim[ci] = e + 1
		dropped[e] = true
		droppedPot[hinge[e]-1] = true
		n++
	}

	out := psl.NewMRF()
	remap := make([]int, len(names))
	for v, name := range names {
		if !dropped[v] {
			remap[v] = out.Var(name)
		}
	}
	remapped := func(terms []psl.LinTerm, scale float64, skip int) []psl.LinTerm {
		var r []psl.LinTerm
		for _, t := range terms {
			if t.Var != skip {
				r = append(r, psl.LinTerm{Var: remap[t.Var], Coef: scale * t.Coef})
			}
		}
		return r
	}
	for pi, p := range m.Potentials {
		if !droppedPot[pi] {
			p.Terms = remapped(p.Terms, 1, -1)
			out.Potentials = append(out.Potentials, p)
		}
	}
	var kept []psl.Constraint
	for ci, c := range m.Constraints {
		if elim[ci] == 0 {
			c.Terms = remapped(c.Terms, 1, -1)
			kept = append(kept, c)
			continue
		}
		e := elim[ci] - 1
		p := m.Potentials[hinge[e]-1]
		b := 0.0
		for _, t := range c.Terms {
			if t.Var == e {
				b = t.Coef
			}
		}
		r := -p.Terms[0].Coef / b
		out.Potentials = append(out.Potentials, psl.Potential{
			Weight: p.Weight,
			Terms:  remapped(c.Terms, r, e),
			Const:  p.Const + r*c.Const,
		})
	}
	out.Constraints = kept
	return out, n
}

// assertRuleGroundingMatchesDirect checks that grounding the paper's
// PSL program and presolving it yields exactly the MRF the collective
// solver grounds directly: the same variable names, and the same
// potentials (weight, terms by variable name, constant) as multisets,
// compared with exact float bits. Every Explained atom is eliminated,
// so the direct grounding has neither Explained variables nor
// constraints.
func assertRuleGroundingMatchesDirect(t *testing.T, label string, p *core.Problem) {
	t.Helper()
	viaRules, err := groundSelectionMRF(p)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	presolved, n := presolve(viaRules)
	if n == 0 || n != len(viaRules.Constraints) {
		t.Fatalf("%s: presolve eliminated %d of %d Explained atoms", label, n, len(viaRules.Constraints))
	}
	direct := p.SelectionMRF()
	if len(direct.Constraints) != 0 {
		t.Fatalf("%s: direct grounding has %d constraints, want none", label, len(direct.Constraints))
	}
	for _, name := range direct.VarNames() {
		if !strings.HasPrefix(name, "In(") {
			t.Fatalf("%s: direct grounding has variable %q; want In atoms only", label, name)
		}
	}
	gotNames, wantNames := presolved.VarNames(), direct.VarNames()
	sort.Strings(gotNames)
	sort.Strings(wantNames)
	if !reflect.DeepEqual(gotNames, wantNames) {
		t.Fatalf("%s: presolved rule grounding has variables %v, direct %v", label, gotNames, wantNames)
	}
	diffCanonical(t, label, canonicalMRF(presolved), canonicalMRF(direct))
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

// canonicalMRF renders every potential and constraint of the MRF as a
// sorted list of strings with exact float bits and variable names.
// Two MRFs over the same evidence must produce equal lists regardless
// of the order their factors and variables were ground in.
func canonicalMRF(m *psl.MRF) []string {
	names := m.VarNames()
	term := func(lt psl.LinTerm) string {
		return names[lt.Var] + "*" + hexF(lt.Coef)
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
