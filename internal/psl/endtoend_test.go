package psl

import (
	"context"
	"math"
	"testing"
)

// End-to-end tests exercising the full pipeline: rule DSL → program →
// grounding → ADMM, on models with non-trivial structure.

// Squared rules through the DSL: the squared hinge trades off against
// a linear prior, giving an interior optimum we can check analytically:
// minimize 2·max(0, 1−A)² + 1·A → derivative −4(1−A) + 1 = 0 → A = 3/4.
func TestSquaredRuleEndToEnd(t *testing.T) {
	p := NewProgram()
	p.MustAddPredicate("B", 1, Closed)
	p.MustAddPredicate("A", 1, Open)
	p.MustAddRule("2.0: B(X) -> A(X) ^2")
	p.MustAddRule("1.0: !A(X)")
	db := NewDatabase()
	db.Observe("B", []string{"x"}, 1)
	db.AddTarget("A", "x")
	m, err := Ground(p, db)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveMAP(context.Background(), m, DefaultADMMOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := atomValue(m, sol, "A", "x"); math.Abs(got-0.75) > 0.02 {
		t.Errorf("A = %v, want 0.75", got)
	}
}

// A transitive-style collective model: friendship smoothness over a
// small graph. Observed Similar links pull Same values together.
func TestCollectiveSmoothingModel(t *testing.T) {
	p := NewProgram()
	p.MustAddPredicate("Similar", 2, Closed)
	p.MustAddPredicate("Seed", 1, Closed)
	p.MustAddPredicate("Same", 1, Open)
	p.MustAddRule("3.0: Seed(X) -> Same(X)")
	p.MustAddRule("2.0: Similar(X, Y) & Same(X) -> Same(Y)")
	p.MustAddRule("0.5: !Same(X)")

	db := NewDatabase()
	db.Observe("Seed", []string{"a"}, 1)
	db.Observe("Similar", []string{"a", "b"}, 1)
	db.Observe("Similar", []string{"b", "c"}, 1)
	for _, x := range []string{"a", "b", "c", "lonely"} {
		db.AddTarget("Same", x)
	}
	m, err := Ground(p, db)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveMAP(context.Background(), m, DefaultADMMOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := atomValue(m, sol, "Same", "a"), atomValue(m, sol, "Same", "b"), atomValue(m, sol, "Same", "c")
	lonely := atomValue(m, sol, "Same", "lonely")
	if a < 0.9 {
		t.Errorf("seed a = %v, want ~1", a)
	}
	if b < a-0.2 || c < b-0.2 {
		t.Errorf("smoothing failed along the chain: a=%v b=%v c=%v", a, b, c)
	}
	if lonely > 0.1 {
		t.Errorf("unconnected atom = %v, want ~0 (prior)", lonely)
	}
}

// Constants inside rule literals restrict grounding.
func TestRuleWithConstantArgument(t *testing.T) {
	p := NewProgram()
	p.MustAddPredicate("Kind", 2, Closed)
	p.MustAddPredicate("Good", 1, Open)
	p.MustAddRule("1.0: Kind(X, 'vip') -> Good(X)")
	db := NewDatabase()
	db.Observe("Kind", []string{"u1", "vip"}, 1)
	db.Observe("Kind", []string{"u2", "basic"}, 1)
	db.AddTarget("Good", "u1")
	db.AddTarget("Good", "u2")
	m, err := Ground(p, db)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveMAP(context.Background(), m, DefaultADMMOptions())
	if err != nil {
		t.Fatal(err)
	}
	if atomValue(m, sol, "Good", "u1") < 0.9 {
		t.Errorf("vip = %v, want ~1", atomValue(m, sol, "Good", "u1"))
	}
	// u2 has no potentials at all; its consensus stays at the 0.5
	// initialisation (an unconstrained variable).
	if got := atomValue(m, sol, "Good", "u2"); got > 0.9 {
		t.Errorf("basic = %v, should not be pushed up", got)
	}
}

// Hard logical rules become constraints that MAP respects.
func TestHardLogicalRuleEndToEnd(t *testing.T) {
	p := NewProgram()
	p.MustAddPredicate("Obs", 1, Closed)
	p.MustAddPredicate("A", 1, Open)
	p.MustAddPredicate("B", 1, Open)
	p.MustAddRule("hard: Obs(X) -> A(X)") // forces A ≥ 1
	p.MustAddRule("1.0: A(X) -> B(X)")
	p.MustAddRule("0.3: !B(X)")
	db := NewDatabase()
	db.Observe("Obs", []string{"x"}, 1)
	db.AddTarget("A", "x")
	db.AddTarget("B", "x")
	m, err := Ground(p, db)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveMAP(context.Background(), m, DefaultADMMOptions())
	if err != nil {
		t.Fatal(err)
	}
	if atomValue(m, sol, "A", "x") < 0.98 {
		t.Errorf("hard rule violated: A = %v", atomValue(m, sol, "A", "x"))
	}
	if atomValue(m, sol, "B", "x") < 0.9 {
		t.Errorf("chained inference failed: B = %v", atomValue(m, sol, "B", "x"))
	}
}
