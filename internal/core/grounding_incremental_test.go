package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"schemamap/internal/ibench"
	"schemamap/internal/psl"
)

// hexF renders a float with exact bits, so the differential comparison
// below tolerates no numeric drift whatsoever.
func hexF(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

// canonicalMRF renders every potential and constraint of the MRF as a
// sorted list of strings with exact float bits and variable names (In
// atoms are named by candidate index, which is fixed). Two MRFs over
// the same evidence must produce equal lists regardless of the order
// their factors were ground in.
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

// The retained grounding after every AppendTarget batch, and after
// each half of a remove-then-add source delta, must be
// factor-for-factor identical (exact float bits) to a cold
// buildGrounding over the same mutated problem — the differential test
// behind the incremental re-grounding path. Some evidence-changing
// source deltas must keep the grounding, or the source half checks
// only cold rebuilds.
func TestIncrementalGroundingMatchesCold(t *testing.T) {
	kept := 0
	for ci, cfg := range streamConfigs() {
		sc, err := ibench.Generate(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		rng := rand.New(rand.NewSource(int64(ci)*31 + 11))
		initial, batches := splitTarget(sc.J, 4, rng)
		p := NewProblem(sc.I, initial, sc.Candidates)
		p.PrepareStreaming(0)

		// Instantiate the retained grounding before the first append so
		// every batch exercises applyDelta rather than a fresh build.
		got := canonicalMRF(p.directGrounding().mrf)
		cold := coldProblemOf(p)
		want := canonicalMRF(cold.SelectionMRF())
		diffCanonical(t, fmt.Sprintf("config %d initial", ci), got, want)

		for bi, batch := range batches {
			if _, err := p.AppendTarget(batch); err != nil {
				t.Fatalf("config %d batch %d: %v", ci, bi, err)
			}
			g := p.directGrounding()
			got := canonicalMRF(g.mrf)
			cold := coldProblemOf(p)
			want := canonicalMRF(cold.SelectionMRF())
			diffCanonical(t, fmt.Sprintf("config %d batch %d", ci, bi), got, want)
		}

		src := sc.I.All()
		for k := 0; k < len(src); k += 4 {
			for _, d := range []SourceDelta{{Remove: src[k : k+1]}, {Add: src[k : k+1]}} {
				g := p.directGrounding()
				delta, err := p.ApplySourceDelta(d)
				if err != nil {
					t.Fatalf("config %d source tuple %d: %v", ci, k, err)
				}
				if p.ground == g && len(delta.ChangedTuples)+len(delta.ErrorsChanged) > 0 {
					kept++
				}
				got := canonicalMRF(p.directGrounding().mrf)
				want := canonicalMRF(coldProblemOf(p).SelectionMRF())
				diffCanonical(t, fmt.Sprintf("config %d source delta %+v", ci, d), got, want)
			}
		}
	}
	if kept == 0 {
		t.Fatal("no evidence-changing source delta kept the retained grounding")
	}
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

// A dual-warm re-solve after a no-op delta (appending only duplicate
// tuples) must converge in a small fraction of the cold iteration
// count — the dirty-slot tombstoning left every retained dual intact —
// and land on the same objective.
func TestWarmResolveAfterNoopDelta(t *testing.T) {
	// The second stream config: the first one's cold solve converges
	// in under 20 iterations, too few to measure a warm speedup.
	cfg := streamConfigs()[1]
	sc, err := ibench.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProblem(sc.I, sc.J, sc.Candidates)
	p.PrepareStreaming(0)

	ctx := context.Background()
	solver := CollectiveSolver{}
	cold, err := solver.Solve(ctx, p, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Iterations < 20 {
		t.Fatalf("cold solve converged in %d iterations; scenario too easy to measure warm speedup", cold.Iterations)
	}

	// Duplicate tuples: Append dedups them, so the delta is empty and
	// no grounding slot is dirtied.
	delta, err := p.AppendTarget(sc.J.All()[:5])
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.ChangedTuples) != 0 || len(delta.PairsChanged) != 0 || len(delta.ErrorsChanged) != 0 {
		t.Fatalf("duplicate append was not a no-op: %+v", delta)
	}

	warm, err := solver.Solve(ctx, p, WithSeed(7), WithWarmStart(cold))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cold %d iterations, warm %d", cold.Iterations, warm.Iterations)
	budget := cold.Iterations / 10
	if budget < 2 {
		budget = 2
	}
	if warm.Iterations > budget {
		t.Errorf("warm re-solve took %d iterations; want <= %d (10%% of cold %d)",
			warm.Iterations, budget, cold.Iterations)
	}
	if diff := math.Abs(warm.Objective.Total() - cold.Objective.Total()); diff > 1e-6 {
		t.Errorf("warm objective %.9f vs cold %.9f (diff %g)",
			warm.Objective.Total(), cold.Objective.Total(), diff)
	}
}

// A real (evidence-changing) append followed by a dual-warm re-solve
// must still match a cold solve of the grown problem — the tombstoned
// slots re-derive their duals, the rest restart warm.
func TestWarmResolveAfterRealDeltaMatchesCold(t *testing.T) {
	for _, name := range []string{"collective"} {
		t.Run(name, func(t *testing.T) {
			cfg := streamConfigs()[0]
			sc, err := ibench.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(99))
			initial, batches := splitTarget(sc.J, 3, rng)
			p := NewProblem(sc.I, initial, sc.Candidates)
			p.PrepareStreaming(0)

			ctx := context.Background()
			solver := MustGet(name)
			prev, err := solver.Solve(ctx, p, WithSeed(5))
			if err != nil {
				t.Fatal(err)
			}
			for bi, batch := range batches {
				if _, err := p.AppendTarget(batch); err != nil {
					t.Fatalf("batch %d: %v", bi, err)
				}
				warm, err := solver.Solve(ctx, p, WithSeed(5), WithWarmStart(prev))
				if err != nil {
					t.Fatalf("batch %d warm: %v", bi, err)
				}
				coldSel, err := MustGet(name).Solve(ctx, coldProblemOf(p), WithSeed(5))
				if err != nil {
					t.Fatalf("batch %d cold: %v", bi, err)
				}
				if diff := math.Abs(warm.Objective.Total() - coldSel.Objective.Total()); diff > 1e-6 {
					t.Errorf("batch %d: warm objective %.9f vs cold %.9f (diff %g)",
						bi, warm.Objective.Total(), coldSel.Objective.Total(), diff)
				}
				prev = warm
			}
		})
	}
}

// Concurrent solves share the Problem's retained grounding read-only
// and race only on the captured dual state; interleaving solve waves
// with appends exercises the tombstoning path. Run under -race by the
// CI race job.
func TestRetainedGroundingConcurrentSolves(t *testing.T) {
	cfg := streamConfigs()[0]
	sc, err := ibench.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	initial, batches := splitTarget(sc.J, 2, rng)
	p := NewProblem(sc.I, initial, sc.Candidates)
	p.PrepareStreaming(0)

	ctx := context.Background()
	wave := func(warm *Selection) *Selection {
		var wg sync.WaitGroup
		results := make([]*Selection, 8)
		errs := make([]error, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				opts := []SolveOption{WithSeed(int64(w + 1)), WithParallelism(1 + w%2)}
				if warm != nil && w%3 == 0 {
					opts = append(opts, WithWarmStart(warm))
				}
				results[w], errs[w] = CollectiveSolver{}.Solve(ctx, p, opts...)
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("worker %d: %v", w, err)
			}
		}
		return results[0]
	}

	prev := wave(nil)
	for bi, batch := range batches {
		if _, err := p.AppendTarget(batch); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		prev = wave(prev)
	}
	_ = prev
}
