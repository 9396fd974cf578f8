package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"schemamap/internal/cover"
	"schemamap/internal/data"
	"schemamap/internal/psl"
	"schemamap/internal/tgd"
)

// syntheticProblem fabricates a prepared Problem with dense fractional
// coverage: every candidate covers every J tuple to a random degree.
// Such instances defeat the branch-and-bound's suffix bound (the best
// remaining coverage is always high, so the bound stays loose) and
// produce a large dense MRF, making both searches run for seconds —
// long enough to observe cancellation mid-flight.
func syntheticProblem(n, nj int) *Problem {
	J := data.NewInstance()
	for j := 0; j < nj; j++ {
		J.Add(data.NewTuple("t", fmt.Sprintf("v%d", j)))
	}
	var cands tgd.Mapping
	for i := 0; i < n; i++ {
		cands = append(cands, tgd.MustParse(fmt.Sprintf("r%d(x) -> s%d(x)", i, i)))
	}
	p := NewProblem(data.NewInstance(), J, cands)
	rng := rand.New(rand.NewSource(7))
	p.prepareOnce.Do(func() {
		p.jidx = cover.IndexJ(J)
		p.analyses = make([]cover.Analysis, n)
		for i := range p.analyses {
			pairs := make([]cover.CoverPair, nj)
			for j := 0; j < nj; j++ {
				pairs[j] = cover.CoverPair{J: int32(j), Cov: 0.3 + 0.6*rng.Float64()}
			}
			p.analyses[i] = cover.Analysis{
				TGDIndex: i,
				Size:     1,
				Pairs:    pairs,
				Errors:   rng.Float64(),
			}
		}
		p.incidence = cover.BuildIncidence(nj, p.analyses)
	})
	return p
}

// assertPromptCancel runs the solve under a context that expires
// after cancelAfter and asserts the solver surfaces ctx.Err() within
// the promptness bound (the interface contract says ~100ms; the test
// allows slack for loaded CI machines).
func assertPromptCancel(t *testing.T, s Solver, p *Problem, cancelAfter time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), cancelAfter)
	defer cancel()
	start := time.Now()
	sel, err := s.Solve(ctx, p)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("%s: err = %v (sel = %v), want context.DeadlineExceeded", s.Name(), err, sel)
	}
	if over := elapsed - cancelAfter; over > 500*time.Millisecond {
		t.Errorf("%s: returned %v after cancellation, want ~100ms", s.Name(), over)
	}
}

// Cancellation mid-ADMM: a dense MRF with an unreachable convergence
// threshold keeps the loop iterating until the context stops it.
func TestCollectiveCancellationMidADMM(t *testing.T) {
	p := syntheticProblem(26, 80)
	s := CollectiveSolver{ADMM: psl.ADMMOptions{MaxIterations: 100_000_000, Epsilon: 1e-300}}
	assertPromptCancel(t, s, p, 30*time.Millisecond)
}

// Cancellation mid-branch-and-bound: dense fractional coverage keeps
// the suffix bound loose, so the search would run for minutes.
func TestExhaustiveCancellationMidSearch(t *testing.T) {
	p := syntheticProblem(26, 80)
	s := ExhaustiveSolver{}
	assertPromptCancel(t, s, p, 30*time.Millisecond)
}

// The fast solvers still honour an already-cancelled context.
func TestFastSolversHonourCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range []Solver{GreedySolver{}, IndependentSolver{}} {
		p := syntheticProblem(10, 20)
		start := time.Now()
		_, err := s.Solve(ctx, p)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", s.Name(), err)
		}
		if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
			t.Errorf("%s: took %v on a cancelled context", s.Name(), elapsed)
		}
	}
}

// A soft budget is not an error: the exhaustive solver returns its
// incumbent selection flagged Truncated.
func TestExhaustiveSoftBudgetReturnsIncumbent(t *testing.T) {
	p := syntheticProblem(26, 80)
	s := ExhaustiveSolver{}
	sel, err := s.Solve(context.Background(), p, WithBudget(30*time.Millisecond))
	if err != nil {
		t.Fatalf("budgeted solve errored: %v", err)
	}
	if !sel.Truncated {
		t.Error("budget expired but Truncated not set")
	}
	if len(sel.Chosen) != p.NumCandidates() {
		t.Errorf("malformed selection: %d flags for %d candidates", len(sel.Chosen), p.NumCandidates())
	}
	if !approx(sel.Objective.Total(), p.Objective(sel.Chosen).Total()) {
		t.Error("reported objective does not match the selection")
	}
}

// A soft budget on the collective solver stops ADMM early but still
// rounds and repairs the partial relaxation.
func TestCollectiveSoftBudgetRoundsPartialRelaxation(t *testing.T) {
	p := syntheticProblem(26, 80)
	s := CollectiveSolver{ADMM: psl.ADMMOptions{MaxIterations: 100_000_000, Epsilon: 1e-300}}
	sel, err := s.Solve(context.Background(), p, WithBudget(30*time.Millisecond))
	if err != nil {
		t.Fatalf("budgeted solve errored: %v", err)
	}
	if !sel.Truncated {
		t.Error("budget expired but Truncated not set")
	}
	if len(sel.Relaxation) != p.NumCandidates() {
		t.Errorf("partial relaxation has %d values, want %d", len(sel.Relaxation), p.NumCandidates())
	}
}

// Greedy under an immediately-expired budget stops before any pass.
func TestGreedySoftBudget(t *testing.T) {
	p := syntheticProblem(10, 20)
	sel, err := GreedySolver{}.Solve(context.Background(), p, WithBudget(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Truncated {
		t.Error("Truncated not set under an expired budget")
	}
}

// Progress events arrive for every phase a solver goes through, and
// carry the solver's name.
func TestProgressEvents(t *testing.T) {
	for _, name := range []string{"collective", "greedy", "independent", "exhaustive"} {
		s := MustGet(name)
		var events []Event
		_, err := s.Solve(context.Background(), appendixProblem(),
			WithProgress(func(e Event) { events = append(events, e) }))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(events) == 0 {
			t.Errorf("%s: no progress events", name)
			continue
		}
		if events[0].Phase != "prepare" {
			t.Errorf("%s: first event phase %q, want prepare", name, events[0].Phase)
		}
		for _, e := range events {
			if e.Solver != name {
				t.Errorf("%s: event reports solver %q", name, e.Solver)
			}
		}
	}
}

// WithSeed perturbs only the ADMM starting point of a convex program:
// the selection quality must not degrade.
func TestWithSeedKeepsOptimum(t *testing.T) {
	base := appendixProblem()
	for i := 0; i < 6; i++ {
		name := "X" + string(rune('a'+i))
		base.I.Add(data.NewTuple("proj", name, "Alice", "SAP"))
		base.J.Add(data.NewTuple("task", name, "Alice", "111"))
	}
	plain, err := CollectiveSolver{}.Solve(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := CollectiveSolver{}.Solve(context.Background(), base, WithSeed(12345))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(plain.Objective.Total(), seeded.Objective.Total()) {
		t.Errorf("seeded F=%v, unseeded F=%v", seeded.Objective.Total(), plain.Objective.Total())
	}
}

// Context cancellation during weight learning propagates out.
func TestLearnSelectionWeightsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := LearnSelectionWeights(ctx,
		[]LearnExample{{Problem: appendixProblem(), Gold: []bool{false, true}}},
		DefaultLearnSelectionOptions())
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
