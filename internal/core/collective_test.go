package core

import (
	"context"
	"math/rand"
	"testing"

	"schemamap/internal/data"
	"schemamap/internal/ibench"
	"schemamap/internal/psl"
	"schemamap/internal/tgd"
)

func scenarioProblem(t *testing.T, n int, seed int64, piCorresp float64) *Problem {
	t.Helper()
	cfg := ibench.DefaultConfig(n, seed)
	cfg.PiCorresp = piCorresp
	sc, err := ibench.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewProblem(sc.I, sc.J, sc.Candidates)
}

func TestCollectiveRoundThreshold(t *testing.T) {
	p := appendixProblem()
	for i := 0; i < 6; i++ {
		name := "X" + string(rune('a'+i))
		p.I.Add(data.NewTuple("proj", name, "Alice", "SAP"))
		p.J.Add(data.NewTuple("task", name, "Alice", "111"))
	}
	sel, err := CollectiveSolver{RoundThreshold: 0.5, NoRepair: true}.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed-threshold rounding without repair still finds θ3 here
	// (its relaxation value is driven to 1).
	if !sel.Chosen[1] {
		t.Errorf("θ3 not selected at threshold 0.5; relaxation %v", sel.Relaxation)
	}
}

func TestCollectiveRelaxationExposed(t *testing.T) {
	p := appendixProblem()
	sel, err := CollectiveSolver{}.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Relaxation) != 2 {
		t.Fatalf("relaxation len = %d", len(sel.Relaxation))
	}
	for i, v := range sel.Relaxation {
		if v < -1e-9 || v > 1+1e-9 {
			t.Errorf("relaxation[%d] = %v outside [0,1]", i, v)
		}
	}
}

// Property: on random small problems the collective solver never does
// worse than both baselines beyond a small tolerance, and never
// returns an infeasible breakdown (parts sum to total).
func TestCollectiveNeverMuchWorseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		p := scenarioProblem(t, 3, rng.Int63n(1000), 50)
		coll, err := CollectiveSolver{}.Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := GreedySolver{}.Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if coll.Objective.Total() > greedy.Objective.Total()+1e-6 {
			t.Errorf("trial %d: collective F=%v > greedy F=%v",
				trial, coll.Objective.Total(), greedy.Objective.Total())
		}
		b := coll.Objective
		if !approx(b.Total(), b.Unexplained+b.Errors+b.Size) {
			t.Errorf("trial %d: breakdown inconsistent: %+v", trial, b)
		}
	}
}

// Objective structure properties on random scenarios: the error and
// size parts are monotone non-decreasing in the selection, the
// unexplained part monotone non-increasing.
func TestObjectiveMonotonicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := scenarioProblem(t, 5, 123, 50)
	n := p.NumCandidates()
	for trial := 0; trial < 50; trial++ {
		sel := make([]bool, n)
		for i := range sel {
			sel[i] = rng.Intn(2) == 0
		}
		sub := append([]bool(nil), sel...)
		// Drop one selected candidate.
		dropped := -1
		for _, i := range rng.Perm(n) {
			if sub[i] {
				sub[i] = false
				dropped = i
				break
			}
		}
		if dropped < 0 {
			continue
		}
		full := p.Objective(sel)
		less := p.Objective(sub)
		if less.Errors > full.Errors+1e-9 || less.Size > full.Size+1e-9 {
			t.Fatalf("error/size not monotone: %+v vs %+v", less, full)
		}
		if less.Unexplained < full.Unexplained-1e-9 {
			t.Fatalf("unexplained increased when dropping a candidate: %+v vs %+v", less, full)
		}
	}
}

func TestExhaustivePrunesUselessCandidates(t *testing.T) {
	// A candidate with zero coverage must never be selected, and the
	// search must not branch on it.
	I := data.NewInstance()
	J := data.NewInstance()
	for i := 0; i < 5; i++ {
		v := string(rune('a' + i))
		I.Add(data.NewTuple("r", v))
		J.Add(data.NewTuple("s", v))
	}
	cands := tgd.Mapping{
		tgd.MustParse("r(x) -> s(x)"),
		tgd.MustParse("r(x) -> u(x)"), // covers nothing in J
	}
	p := NewProblem(I, J, cands)
	sel, err := ExhaustiveSolver{}.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Chosen[1] {
		t.Error("useless candidate selected")
	}
	if !sel.Chosen[0] {
		t.Error("useful candidate not selected")
	}
	// With the useless candidate pruned the tree has ≤ 2·(n+1) nodes.
	if sel.Iterations > 6 {
		t.Errorf("B&B explored %d nodes, pruning inactive?", sel.Iterations)
	}
}

// A collective solve says whether its relaxation converged: capped at
// one ADMM iteration it does not, by default it does, and greedy, with
// no relaxation, never claims otherwise.
func TestCollectiveReportsConvergence(t *testing.T) {
	p := scenarioProblem(t, 7, 7, 20)
	ctx := context.Background()
	capped, err := CollectiveSolver{ADMM: psl.ADMMOptions{MaxIterations: 1}}.Solve(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Unconverged || capped.Truncated || capped.Iterations != 1 {
		t.Fatalf("MaxIterations 1: unconverged=%v truncated=%v iterations=%d; want true, false, 1",
			capped.Unconverged, capped.Truncated, capped.Iterations)
	}
	def, err := CollectiveSolver{}.Solve(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if def.Unconverged {
		t.Fatalf("default solve reports unconverged after %d iterations", def.Iterations)
	}
	greedy, err := GreedySolver{}.Solve(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Unconverged {
		t.Fatal("greedy reports an unconverged relaxation it does not have")
	}
}

// With w₁ = 0 the explanation reward vanishes: the grounding is the
// priors alone (no tuple hinge, no constraint), and the collective
// solver still reaches the exact optimum on the benchmark's S scenario.
func TestCollectiveZeroExplainWeightMatchesExhaustive(t *testing.T) {
	cfg := ibench.DefaultConfig(7, 7)
	cfg.Rows = 10
	cfg.PiCorresp, cfg.PiErrors, cfg.PiUnexplained = 20, 10, 10
	sc, err := ibench.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProblem(sc.I, sc.J, sc.Candidates)
	p.Weights = Weights{Explain: 0, Error: 1, Size: 1}
	mrf := p.SelectionMRF()
	if len(mrf.Constraints) != 0 || len(mrf.Potentials) > p.NumCandidates() {
		t.Fatalf("w₁ = 0 grounding has %d potentials and %d constraints; want at most %d priors and none",
			len(mrf.Potentials), len(mrf.Constraints), p.NumCandidates())
	}
	ctx := context.Background()
	exact, err := ExhaustiveSolver{}.Solve(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectiveSolver{}.Solve(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Objective.Total() != exact.Objective.Total() {
		t.Fatalf("collective objective %v, exhaustive %v", got.Objective.Total(), exact.Objective.Total())
	}
}
