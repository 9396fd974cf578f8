package psl

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func solve(t *testing.T, m *MRF) *Solution {
	t.Helper()
	sol, err := SolveMAP(context.Background(), m, DefaultADMMOptions())
	if err != nil {
		t.Fatalf("SolveMAP: %v", err)
	}
	return sol
}

func TestParseRule(t *testing.T) {
	r, err := ParseRule("2.5: Covers(M, T) & In(M) -> Explained(T)")
	if err != nil {
		t.Fatal(err)
	}
	if r.Weight != 2.5 || len(r.Body) != 2 || len(r.Head) != 1 || r.Hard || r.Squared {
		t.Errorf("bad parse: %+v", r)
	}
	if r.Body[0].Pred != "Covers" || r.Head[0].Pred != "Explained" {
		t.Errorf("bad predicates: %+v", r)
	}

	r, err = ParseRule("1.0: !In(M)")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Body) != 0 || len(r.Head) != 1 || !r.Head[0].Negated {
		t.Errorf("bad prior parse: %+v", r)
	}

	r, err = ParseRule("hard: A(X) -> B(X)")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Hard {
		t.Errorf("hard flag lost: %+v", r)
	}

	r, err = ParseRule("0.5: Friends(A,B) -> Same(A,B) ^2")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Squared {
		t.Errorf("squared flag lost: %+v", r)
	}

	if _, err := ParseRule("no weight here"); err == nil {
		t.Error("expected error for missing weight")
	}
	if _, err := ParseRule("1.0: "); err == nil {
		t.Error("expected error for empty rule")
	}
}

func TestParseRuleConstantsAndVariables(t *testing.T) {
	r, err := ParseRule("1.0: P(X, 'c', lower) -> Q(X)")
	if err != nil {
		t.Fatal(err)
	}
	terms := r.Body[0].Terms
	if terms[0].IsConst || !terms[1].IsConst || !terms[2].IsConst {
		t.Errorf("term kinds wrong: %+v", terms)
	}
}

func TestProgramValidation(t *testing.T) {
	p := NewProgram()
	p.MustAddPredicate("A", 1, Open)
	p.MustAddPredicate("Obs", 1, Closed)
	if err := p.AddRule(Rule{Weight: 1, Head: []Literal{{Pred: "Nope", Terms: []RuleTerm{{Name: "X"}}}}}); err == nil {
		t.Error("expected undeclared-predicate error")
	}
	if err := p.AddRule(Rule{Weight: -1, Head: []Literal{{Pred: "A", Terms: []RuleTerm{{Name: "X"}}}}}); err == nil {
		t.Error("expected weight error")
	}
	// Variable bound only via a negated closed literal: rejected.
	bad, _ := ParseRule("1.0: !Obs(X) -> A('a')")
	if err := p.AddRule(bad); err == nil {
		t.Error("expected unbindable-variable error")
	}
	ok, _ := ParseRule("1.0: Obs(X) -> A(X)")
	if err := p.AddRule(ok); err != nil {
		t.Errorf("valid rule rejected: %v", err)
	}
}

func TestPriorPullsDown(t *testing.T) {
	m := NewMRF()
	a := m.AtomVar("A", "x")
	m.AddPotential(Potential{Weight: 1, Terms: []LinTerm{{Var: a, Coef: 1}}})
	sol := solve(t, m)
	if sol.X[a] > 0.01 {
		t.Errorf("A = %v, want ~0", sol.X[a])
	}
}

func TestPriorPullsUp(t *testing.T) {
	m := NewMRF()
	a := m.AtomVar("A", "x")
	m.AddPotential(Potential{Weight: 1, Terms: []LinTerm{{Var: a, Coef: -1}}, Const: 1})
	sol := solve(t, m)
	if sol.X[a] < 0.99 {
		t.Errorf("A = %v, want ~1", sol.X[a])
	}
}

func TestCompetingPriors(t *testing.T) {
	// 3·(1−x) + 1·x minimised at x = 1.
	m := NewMRF()
	a := m.AtomVar("A", "x")
	m.AddPotential(Potential{Weight: 3, Terms: []LinTerm{{Var: a, Coef: -1}}, Const: 1})
	m.AddPotential(Potential{Weight: 1, Terms: []LinTerm{{Var: a, Coef: 1}}})
	sol := solve(t, m)
	if sol.X[a] < 0.99 {
		t.Errorf("A = %v, want 1", sol.X[a])
	}
	if want := 1.0; math.Abs(sol.Objective-want) > 0.02 {
		t.Errorf("objective = %v, want %v", sol.Objective, want)
	}
}

func TestHardConstraintCap(t *testing.T) {
	// Maximise A + B subject to A + B ≤ 1: optimum objective 1.
	m := NewMRF()
	a := m.AtomVar("A", "x")
	b := m.AtomVar("B", "x")
	m.AddPotential(Potential{Weight: 1, Terms: []LinTerm{{Var: a, Coef: -1}}, Const: 1})
	m.AddPotential(Potential{Weight: 1, Terms: []LinTerm{{Var: b, Coef: -1}}, Const: 1})
	if err := m.AddConstraint(Constraint{Terms: []LinTerm{{Var: a, Coef: 1}, {Var: b, Coef: 1}}, Const: -1, Cmp: LE}); err != nil {
		t.Fatal(err)
	}
	sol := solve(t, m)
	if s := sol.X[a] + sol.X[b]; s > 1.01 {
		t.Errorf("A+B = %v, violates constraint", s)
	}
	if math.Abs(sol.Objective-1.0) > 0.03 {
		t.Errorf("objective = %v, want 1", sol.Objective)
	}
}

func TestEqualityConstraint(t *testing.T) {
	m := NewMRF()
	a := m.AtomVar("A", "x")
	m.AddPotential(Potential{Weight: 1, Terms: []LinTerm{{Var: a, Coef: 1}}})
	if err := m.AddConstraint(Constraint{Terms: []LinTerm{{Var: a, Coef: 1}}, Const: -0.7, Cmp: EQ}); err != nil {
		t.Fatal(err)
	}
	sol := solve(t, m)
	if math.Abs(sol.X[a]-0.7) > 0.02 {
		t.Errorf("A = %v, want 0.7", sol.X[a])
	}
}

func TestGroundingChain(t *testing.T) {
	// Observed B(x)=1; rule 2: B -> A; prior 1: !A. Optimum A = 1.
	p := NewProgram()
	p.MustAddPredicate("B", 1, Closed)
	p.MustAddPredicate("A", 1, Open)
	p.MustAddRule("2.0: B(X) -> A(X)")
	p.MustAddRule("1.0: !A(X)")
	db := NewDatabase()
	db.Observe("B", []string{"x"}, 1)
	db.AddTarget("A", "x")
	m, err := Ground(p, db)
	if err != nil {
		t.Fatal(err)
	}
	sol := solve(t, m)
	if got := atomValue(m, sol, "A", "x"); got < 0.99 {
		t.Errorf("A(x) = %v, want 1", got)
	}
}

func TestGroundingSoftObservation(t *testing.T) {
	// B(x) observed at 0.4: rule w=1 B->A gives hinge max(0, 0.4 − A);
	// prior w=1 !A gives A. Any A in [0, 0.4] is optimal (total 0.4).
	p := NewProgram()
	p.MustAddPredicate("B", 1, Closed)
	p.MustAddPredicate("A", 1, Open)
	p.MustAddRule("1.0: B(X) -> A(X)")
	p.MustAddRule("1.0: !A(X)")
	db := NewDatabase()
	db.Observe("B", []string{"x"}, 0.4)
	db.AddTarget("A", "x")
	m, err := Ground(p, db)
	if err != nil {
		t.Fatal(err)
	}
	sol := solve(t, m)
	if math.Abs(sol.Objective-0.4) > 0.02 {
		t.Errorf("objective = %v, want 0.4", sol.Objective)
	}
}

func TestGroundingJoin(t *testing.T) {
	// Covers(m1,t1)=0.5, Covers(m2,t1)=1.0; rule: Covers(M,T) & In(M)
	// -> Explained(T). Grounds two potentials over In/Explained.
	p := NewProgram()
	p.MustAddPredicate("Covers", 2, Closed)
	p.MustAddPredicate("In", 1, Open)
	p.MustAddPredicate("Explained", 1, Open)
	p.MustAddRule("1.0: Covers(M, T) & In(M) -> Explained(T)")
	db := NewDatabase()
	db.Observe("Covers", []string{"m1", "t1"}, 0.5)
	db.Observe("Covers", []string{"m2", "t1"}, 1.0)
	db.AddTarget("In", "m1")
	db.AddTarget("In", "m2")
	db.AddTarget("Explained", "t1")
	m, err := Ground(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Potentials) != 2 {
		t.Fatalf("got %d potentials, want 2", len(m.Potentials))
	}
}

func TestGroundRulePruning(t *testing.T) {
	// A ground rule whose hinge can never be positive is dropped:
	// Covers observed at 0 makes body ≤ 0.
	p := NewProgram()
	p.MustAddPredicate("Covers", 2, Closed)
	p.MustAddPredicate("In", 1, Open)
	p.MustAddPredicate("Explained", 1, Open)
	p.MustAddRule("1.0: Covers(M, T) & In(M) -> Explained(T)")
	db := NewDatabase()
	db.Observe("Covers", []string{"m1", "t1"}, 0)
	db.AddTarget("In", "m1")
	db.AddTarget("Explained", "t1")
	m, err := Ground(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Potentials) != 0 {
		t.Errorf("got %d potentials, want 0 (pruned)", len(m.Potentials))
	}
}

// bruteForce minimises the MRF objective over a grid, honouring
// constraints; only usable for very small variable counts.
func bruteForce(m *MRF, steps int) float64 {
	n := m.NumVars()
	best := math.Inf(1)
	x := make([]float64, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if m.Feasible(x, 1e-9) {
				if v := m.Objective(x); v < best {
					best = v
				}
			}
			return
		}
		for s := 0; s <= steps; s++ {
			x[i] = float64(s) / float64(steps)
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

func TestADMMMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		m := NewMRF()
		n := 2 + rng.Intn(2) // 2..3 vars
		vars := make([]int, n)
		for i := range vars {
			vars[i] = m.Var(string(rune('a' + i)))
		}
		pots := 2 + rng.Intn(4)
		for p := 0; p < pots; p++ {
			var terms []LinTerm
			for _, v := range vars {
				if rng.Float64() < 0.6 {
					c := rng.Float64()*2 - 1
					terms = append(terms, LinTerm{Var: v, Coef: c})
				}
			}
			if len(terms) == 0 {
				continue
			}
			m.AddPotential(Potential{
				Weight:  0.2 + rng.Float64()*2,
				Squared: rng.Float64() < 0.3,
				Terms:   terms,
				Const:   rng.Float64()*2 - 1,
			})
		}
		sol, err := SolveMAP(context.Background(), m, DefaultADMMOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bruteForce(m, 50)
		if sol.Objective > want+0.02 {
			t.Errorf("trial %d: ADMM objective %v, brute force %v", trial, sol.Objective, want)
		}
	}
}

func TestADMMWithConstraintsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		m := NewMRF()
		a := m.Var("a")
		b := m.Var("b")
		m.AddPotential(Potential{Weight: 1 + rng.Float64(), Terms: []LinTerm{{Var: a, Coef: -1}}, Const: 1})
		m.AddPotential(Potential{Weight: 1 + rng.Float64(), Terms: []LinTerm{{Var: b, Coef: -1}}, Const: 1})
		cap := 0.3 + rng.Float64()
		if err := m.AddConstraint(Constraint{Terms: []LinTerm{{Var: a, Coef: 1}, {Var: b, Coef: 1}}, Const: -cap, Cmp: LE}); err != nil {
			t.Fatal(err)
		}
		sol, err := SolveMAP(context.Background(), m, DefaultADMMOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bruteForce(m, 100)
		if sol.Objective > want+0.03 {
			t.Errorf("trial %d: ADMM objective %v, brute force %v", trial, sol.Objective, want)
		}
	}
}

func TestConstantConstraintValidation(t *testing.T) {
	m := NewMRF()
	if err := m.AddConstraint(Constraint{Const: 1, Cmp: LE}); err == nil {
		t.Error("expected violated constant constraint error")
	}
	if err := m.AddConstraint(Constraint{Const: -1, Cmp: LE}); err != nil {
		t.Errorf("satisfied constant constraint rejected: %v", err)
	}
}
