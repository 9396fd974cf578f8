package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// appendixProblem reconstructs the appendix §I running example; see
// internal/cover's tests for the per-measure goldens.
func appendixProblem() *Problem {
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
	return NewProblem(I, J, cands)
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestAppendixObjectiveTable reproduces the appendix's table of
// objective values exactly:
//
//	M          Σ(1−explains)  Σ error  size  Eq.(9)
//	{}         4              0        0     4
//	{θ1}       3⅓             1        3     7⅓
//	{θ3}       2              2        4     8
//	{θ1,θ3}    2              3        7     12
func TestAppendixObjectiveTable(t *testing.T) {
	p := appendixProblem()
	cases := []struct {
		name                      string
		sel                       []bool
		unexplained, errors, size float64
	}{
		{"empty", []bool{false, false}, 4, 0, 0},
		{"theta1", []bool{true, false}, 10.0 / 3.0, 1, 3},
		{"theta3", []bool{false, true}, 2, 2, 4},
		{"both", []bool{true, true}, 2, 3, 7},
	}
	for _, c := range cases {
		b := p.Objective(c.sel)
		if !approx(b.Unexplained, c.unexplained) {
			t.Errorf("%s: unexplained = %v, want %v", c.name, b.Unexplained, c.unexplained)
		}
		if !approx(b.Errors, c.errors) {
			t.Errorf("%s: errors = %v, want %v", c.name, b.Errors, c.errors)
		}
		if !approx(b.Size, c.size) {
			t.Errorf("%s: size = %v, want %v", c.name, b.Size, c.size)
		}
		if !approx(b.Total(), c.unexplained+c.errors+c.size) {
			t.Errorf("%s: total inconsistent", c.name)
		}
	}
	// Preference order from the appendix: {} < {θ1} < {θ3} < {θ1,θ3}.
	vals := make([]float64, len(cases))
	for i, c := range cases {
		vals[i] = p.Objective(c.sel).Total()
	}
	for i := 1; i < len(vals); i++ {
		if vals[i-1] >= vals[i] {
			t.Errorf("preference order broken at %d: %v", i, vals)
		}
	}
}

// TestAppendixOverfittingFlip: adding k ≥ 5 extra ML-like project
// pairs makes {θ3} optimal; with k = 4 the empty mapping still ties.
func TestAppendixOverfittingFlip(t *testing.T) {
	build := func(extra int) *Problem {
		p := appendixProblem()
		for i := 0; i < extra; i++ {
			name := "X" + string(rune('a'+i))
			p.I.Add(data.NewTuple("proj", name, "Alice", "SAP"))
			p.J.Add(data.NewTuple("task", name, "Alice", "111"))
		}
		return p
	}

	p4 := build(4)
	if e, t3 := p4.Objective([]bool{false, false}).Total(), p4.Objective([]bool{false, true}).Total(); !approx(e, t3) {
		t.Errorf("k=4: empty=%v theta3=%v, want tie at 8", e, t3)
	}

	p5 := build(5)
	empty := p5.Objective([]bool{false, false}).Total()
	th3 := p5.Objective([]bool{false, true}).Total()
	th1 := p5.Objective([]bool{true, false}).Total()
	if !(th3 < empty && th3 < th1) {
		t.Errorf("k=5: theta3=%v should beat empty=%v and theta1=%v", th3, empty, th1)
	}
	if !approx(th3, 8) || !approx(empty, 9) || !approx(th1, 9) {
		t.Errorf("k=5 values: theta3=%v empty=%v theta1=%v, want 8/9/9", th3, empty, th1)
	}

	// And the exact solver must pick {θ3}.
	sel, err := ExhaustiveSolver{}.Solve(context.Background(), p5)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Chosen[1] || sel.Chosen[0] {
		t.Errorf("exhaustive picked %v, want {θ3}", sel.Indices())
	}
}

func TestSolversOnAppendixExample(t *testing.T) {
	solvers := []Solver{
		ExhaustiveSolver{},
		GreedySolver{},
		CollectiveSolver{},
	}
	for _, s := range solvers {
		p := appendixProblem()
		sel, err := s.Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		// The optimum here is the empty mapping (F = 4).
		if sel.Count() != 0 {
			t.Errorf("%s picked %v, want empty (F=%v)", s.Name(), sel.Indices(), sel.Objective.Total())
		}
		if !approx(sel.Objective.Total(), 4) {
			t.Errorf("%s objective %v, want 4", s.Name(), sel.Objective.Total())
		}
	}
}

func TestCollectiveMatchesExhaustiveAfterFlip(t *testing.T) {
	p := appendixProblem()
	for i := 0; i < 6; i++ {
		name := "X" + string(rune('a'+i))
		p.I.Add(data.NewTuple("proj", name, "Alice", "SAP"))
		p.J.Add(data.NewTuple("task", name, "Alice", "111"))
	}
	exact, err := ExhaustiveSolver{}.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := CollectiveSolver{}.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(exact.Objective.Total(), coll.Objective.Total()) {
		t.Errorf("collective F=%v, exact F=%v", coll.Objective.Total(), exact.Objective.Total())
	}
	if !coll.Chosen[1] {
		t.Errorf("collective should select θ3, got %v (relaxation %v)", coll.Indices(), coll.Relaxation)
	}
}

// TestSetCoverReduction reproduces the appendix §III construction:
// SET COVER instances map to mapping selection with full st tgds, and
// the exact solver's objective value answers the decision problem.
func TestSetCoverReduction(t *testing.T) {
	// U = {u1..u5}; R1={u1,u2,u3}, R2={u3,u4}, R3={u4,u5}, R4={u1,u5}.
	// Minimum cover: {R1,R3} (n=2).
	universe := []string{"u1", "u2", "u3", "u4", "u5"}
	sets := map[string][]string{
		"R1": {"u1", "u2", "u3"},
		"R2": {"u3", "u4"},
		"R3": {"u4", "u5"},
		"R4": {"u1", "u5"},
	}
	n := 2
	m := 2 * n // decision bound from the reduction
	p, fullSize := setCoverProblem(universe, sets, m)

	sel, err := ExhaustiveSolver{}.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	// F(M) = (m+1)(|U| − |covered|) + 2|M|; a cover of size ≤ n exists
	// iff F_min ≤ m.
	if got := sel.Objective.Total(); got > float64(m)+1e-9 {
		t.Errorf("F_min = %v, want ≤ %d (cover exists)", got, m)
	}
	if c := sel.Count(); c != n {
		t.Errorf("selected %d sets, want %d", c, n)
	}
	_ = fullSize

	// Shrink the universe's budget: demand a 1-set cover, impossible.
	m1 := 2 * 1
	p1, _ := setCoverProblem(universe, sets, m1)
	sel1, err := ExhaustiveSolver{}.Solve(context.Background(), p1)
	if err != nil {
		t.Fatal(err)
	}
	if got := sel1.Objective.Total(); got <= float64(m1)+1e-9 {
		t.Errorf("F_min = %v under bound %d, but no 1-set cover exists", got, m1)
	}
}

// setCoverProblem builds the appendix §III reduction instance: domain
// D = {1..m+1}, S = {Ri/2}, T = {U/2}, candidates Ri(X,Y) → U(X,Y),
// J = U×D, I = ∪ Ri×D.
func setCoverProblem(universe []string, sets map[string][]string, m int) (*Problem, int) {
	I := data.NewInstance()
	J := data.NewInstance()
	D := make([]string, m+1)
	for i := range D {
		D[i] = "d" + string(rune('0'+i%10)) + string(rune('a'+i/10))
	}
	for _, x := range universe {
		for _, y := range D {
			J.Add(data.NewTuple("U", x, y))
		}
	}
	var cands tgd.Mapping
	names := []string{"R1", "R2", "R3", "R4"}
	for _, rname := range names {
		for _, x := range sets[rname] {
			for _, y := range D {
				I.Add(data.NewTuple(rname, x, y))
			}
		}
		cands = append(cands, tgd.MustParse(rname+"(x,y) -> U(x,y)"))
	}
	p := NewProblem(I, J, cands)
	return p, 2
}

func TestIndependentOverSelects(t *testing.T) {
	// Two identical candidates both profitable alone: independent
	// takes both (paying size twice), greedy/collective take one.
	I := data.NewInstance()
	for i := 0; i < 6; i++ {
		I.Add(data.NewTuple("r", "a"+string(rune('0'+i)), "b"))
	}
	J := data.NewInstance()
	for i := 0; i < 6; i++ {
		J.Add(data.NewTuple("s", "a"+string(rune('0'+i)), "b"))
	}
	cands := tgd.Mapping{
		tgd.MustParse("r(x,y) -> s(x,y)"),
		tgd.MustParse("r(x,y) -> s(x,y)"),
	}
	p := NewProblem(I, J, cands)

	ind, err := IndependentSolver{}.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if ind.Count() != 2 {
		t.Errorf("independent picked %d, want 2 (over-selection)", ind.Count())
	}
	coll, err := CollectiveSolver{}.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if coll.Count() != 1 {
		t.Errorf("collective picked %d, want 1", coll.Count())
	}
	if coll.Objective.Total() >= ind.Objective.Total() {
		t.Errorf("collective F=%v should beat independent F=%v",
			coll.Objective.Total(), ind.Objective.Total())
	}
}

func TestWeightsScaleObjective(t *testing.T) {
	p := appendixProblem()
	p.Weights = Weights{Explain: 2, Error: 3, Size: 5}
	b := p.Objective([]bool{true, false})
	if !approx(b.Unexplained, 2*10.0/3.0) || !approx(b.Errors, 3*1) || !approx(b.Size, 5*3) {
		t.Errorf("weighted breakdown wrong: %+v", b)
	}
}

// One candidate past the cap is refused. The guard fires before
// Prepare, so the test prepares nothing.
func TestExhaustiveGuard(t *testing.T) {
	var cands tgd.Mapping
	for i := 0; i <= exhaustiveCap; i++ {
		cands = append(cands, tgd.MustParse(fmt.Sprintf("r%d(x) -> s%d(x)", i, i)))
	}
	p := NewProblem(data.NewInstance(), data.NewInstance(), cands)
	if _, err := (ExhaustiveSolver{}).Solve(context.Background(), p); err == nil {
		t.Errorf("exhaustive solve over %d candidates: expected candidate-limit error", len(cands))
	}
}

func TestObjectiveOfSetAndSelectedMapping(t *testing.T) {
	p := appendixProblem()
	b := p.Objective([]bool{false, true})
	if !approx(b.Total(), 8) {
		t.Errorf("Objective({θ3}) = %v, want 8", b.Total())
	}
	m := p.SelectedMapping([]bool{false, true})
	if len(m) != 1 || len(m[0].Head) != 2 {
		t.Errorf("SelectedMapping wrong: %v", m.Strings())
	}
}
