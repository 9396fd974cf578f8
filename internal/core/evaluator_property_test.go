package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"schemamap/internal/cover"
	"schemamap/internal/data"
	"schemamap/internal/ibench"
)

// Property: under arbitrary random flip sequences, the Evaluator's
// incrementally maintained total equals Problem.Objective recomputed
// from scratch, FlipDelta predicts the applied Flip delta exactly,
// and flipping twice restores the total.
func TestEvaluatorMatchesObjectiveUnderRandomFlips(t *testing.T) {
	for pi, p := range scenarioProblems(t) {
		n := p.NumCandidates()
		rng := rand.New(rand.NewSource(int64(pi) + 41))
		ev := NewEvaluator(p, make([]bool, n))
		for step := 0; step < 400; step++ {
			i := rng.Intn(n)
			before := ev.Total()
			predicted := ev.FlipDelta(i)
			applied := ev.Flip(i)
			if math.Abs(predicted-applied) > 1e-9 {
				t.Fatalf("problem %d step %d: FlipDelta(%d) = %v but Flip applied %v",
					pi, step, i, predicted, applied)
			}
			if math.Abs(ev.Total()-(before+applied)) > 1e-9 {
				t.Fatalf("problem %d step %d: total %v, want %v", pi, step, ev.Total(), before+applied)
			}
			want := p.Objective(ev.Selection()).Total()
			if math.Abs(ev.Total()-want) > 1e-9 {
				t.Fatalf("problem %d step %d: evaluator total %v, objective %v (sel %v)",
					pi, step, ev.Total(), want, ev.Selection())
			}
			if rng.Intn(4) == 0 {
				back := ev.Flip(i)
				if math.Abs(applied+back) > 1e-9 {
					t.Fatalf("problem %d step %d: flip-back delta %v does not cancel %v",
						pi, step, back, applied)
				}
			}
		}
	}
}

// Property: under a long random interleaving of flips and target
// appends, the evaluator's total stays within tolerance of a
// from-scratch evaluation. Each append makes the evaluator stale (its
// next use panics); the evaluator rebuilt at the current selection
// agrees with Objective exactly.
func TestEvaluatorUnderRandomFlipsAndAppends(t *testing.T) {
	cfg := ibench.DefaultConfig(7, 7)
	cfg.Rows = 10
	cfg.PiCorresp = 30
	cfg.PiErrors = 10
	cfg.PiUnexplained = 10
	sc, err := ibench.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	all := sc.J.All()
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	initial := len(all) / 2
	Jinst := data.NewInstance()
	for _, tp := range all[:initial] {
		Jinst.Add(tp)
	}
	p := NewProblem(sc.I, Jinst, sc.Candidates)
	p.PrepareStreaming(0)
	n := p.NumCandidates()
	ev := NewEvaluator(p, make([]bool, n))
	sel := make([]bool, n)

	next := initial
	for step := 0; step < 1200; step++ {
		switch {
		case step%97 == 96 && next < len(all):
			// Append a small batch; the old evaluator is stale.
			hi := next + 1 + rng.Intn(6)
			if hi > len(all) {
				hi = len(all)
			}
			if _, err := p.AppendTarget(all[next:hi]); err != nil {
				t.Fatal(err)
			}
			next = hi
			if !mustPanic(func() { ev.Total() }) {
				t.Fatalf("step %d: evaluator still usable after an append", step)
			}
			ev = NewEvaluator(p, sel)
			want := p.Objective(sel).Total()
			if math.Abs(ev.Total()-want) > 1e-9 {
				t.Fatalf("step %d: rebuilt total %v, objective %v", step, ev.Total(), want)
			}
		default:
			i := rng.Intn(n)
			predicted := ev.FlipDelta(i)
			applied := ev.Flip(i)
			sel[i] = !sel[i]
			if math.Abs(predicted-applied) > 1e-9 {
				t.Fatalf("step %d: FlipDelta %v but Flip applied %v", step, predicted, applied)
			}
		}
		want := p.Objective(sel).Total()
		if math.Abs(ev.Total()-want) > 1e-6 {
			t.Fatalf("step %d: evaluator total %v, objective %v", step, ev.Total(), want)
		}
	}
	if next < len(all) {
		// Drain the stream and close with a final exact check.
		if _, err := p.AppendTarget(all[next:]); err != nil {
			t.Fatal(err)
		}
		ev = NewEvaluator(p, sel)
	}
	if want := p.Objective(sel).Total(); math.Abs(ev.Total()-want) > 1e-9 {
		t.Fatalf("final: evaluator total %v, objective %v", ev.Total(), want)
	}
}

// The Evaluator's hot paths must not allocate: greedy and repair call
// FlipDelta/Flip in O(|C|·passes) loops.
func TestEvaluatorFlipAllocs(t *testing.T) {
	p := scenarioProblems(t)[0]
	n := p.NumCandidates()
	ev := NewEvaluator(p, make([]bool, n))
	i := 0
	if avg := testing.AllocsPerRun(100, func() {
		ev.FlipDelta(i % n)
		ev.Flip(i % n)
		ev.Flip(i % n)
		i++
	}); avg > 0 {
		t.Errorf("FlipDelta+Flip allocate %.1f objects/run, want 0", avg)
	}
}

// Differential: every solver's reported objective on a seeded ibench
// scenario must equal F recomputed from the *reference* evidence
// pipeline (map-based, scan-based homomorphism search) at the same
// selection — pinning the sparse fast path end to end through the
// solvers.
func TestSolverObjectivesMatchReferenceEvidence(t *testing.T) {
	cfg := ibench.DefaultConfig(7, 7)
	cfg.Rows = 10
	cfg.PiCorresp = 20
	cfg.PiErrors = 10
	cfg.PiUnexplained = 10
	sc, err := ibench.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProblem(sc.I, sc.J, sc.Candidates)
	jidx := cover.IndexJ(sc.J)
	ref := cover.AnalyzeReference(sc.I, jidx, sc.Candidates, cover.DefaultOptions())

	refObjective := func(sel []bool) float64 {
		maxCov := make([]float64, jidx.Len())
		total := 0.0
		for i, on := range sel {
			if !on {
				continue
			}
			total += p.Weights.Error*ref[i].Errors + p.Weights.Size*float64(ref[i].Size)
			for _, pr := range ref[i].Pairs {
				if pr.Cov > maxCov[pr.J] {
					maxCov[pr.J] = pr.Cov
				}
			}
		}
		for _, c := range maxCov {
			total += p.Weights.Explain * (1 - c)
		}
		return total
	}

	for _, name := range Names() {
		solver, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := solver.Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := refObjective(sel.Chosen)
		if math.Abs(sel.Objective.Total()-want) > 1e-9 {
			t.Errorf("%s: objective %v, reference evidence gives %v", name, sel.Objective.Total(), want)
		}
	}
}
