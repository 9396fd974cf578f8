package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"schemamap/internal/cover"
	"schemamap/internal/data"
	"schemamap/internal/ibench"
)

// streamConfigs are the seeded scenarios the streaming differential
// tests run on: the harness's S scale plus a noisier small one.
func streamConfigs() []ibench.Config {
	mk := func(n, rows int, corr, errs, unexpl float64, seed int64) ibench.Config {
		cfg := ibench.DefaultConfig(n, seed)
		cfg.Rows = rows
		cfg.PiCorresp = corr
		cfg.PiErrors = errs
		cfg.PiUnexplained = unexpl
		return cfg
	}
	return []ibench.Config{
		mk(7, 10, 20, 10, 10, 7),
		mk(7, 8, 50, 20, 20, 3),
	}
}

// splitTarget deals J into an initial instance and n append batches in
// a seeded shuffled arrival order.
func splitTarget(J *data.Instance, n int, rng *rand.Rand) (*data.Instance, [][]data.Tuple) {
	all := J.All()
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	k := len(all) / 2
	initial := data.NewInstance()
	for _, t := range all[:k] {
		initial.Add(t)
	}
	rest := all[k:]
	batches := make([][]data.Tuple, 0, n)
	for b := 0; b < n; b++ {
		batches = append(batches, rest[b*len(rest)/n:(b+1)*len(rest)/n])
	}
	return initial, batches
}

// coldProblemOf builds a fresh Problem over the same live target
// tuples a mutated problem currently holds (tombstoned slots skipped),
// with the mutated problem's current candidate set.
func coldProblemOf(p *Problem) *Problem {
	J := data.NewInstance()
	jidx := p.JIndex()
	for j, t := range jidx.Tuples {
		if jidx.Live(j) {
			J.Add(t)
		}
	}
	cold := NewProblem(p.I, J, p.Candidates)
	cold.Weights = p.Weights
	cold.CoverOptions = p.CoverOptions
	return cold
}

// assertEvidenceMatchesCold compares an appended problem's evidence
// against a cold Prepare over the same target, up to the tuple-id
// permutation induced by arrival order (coverage values, error
// counts, block counts are value-identical per concrete tuple). It
// also checks the incidence every mutation refreshes: row for row, it
// must be the inversion of the problem's current analyses.
func assertEvidenceMatchesCold(t *testing.T, label string, p, cold *Problem) {
	t.Helper()
	got := p.Analyses()
	want := cold.Analyses()
	if len(got) != len(want) {
		t.Fatalf("%s: %d analyses vs cold %d", label, len(got), len(want))
	}
	pj, cj := p.JIndex(), cold.JIndex()
	for i := range got {
		remapped := got[i]
		remapped.Pairs = make([]cover.CoverPair, len(got[i].Pairs))
		for k, pr := range got[i].Pairs {
			j := cj.IndexOf(pj.Tuples[pr.J])
			if j < 0 {
				t.Fatalf("%s candidate %d: streamed tuple %v missing from cold index", label, i, pj.Tuples[pr.J])
			}
			remapped.Pairs[k] = cover.CoverPair{J: int32(j), Cov: pr.Cov}
		}
		sort.Slice(remapped.Pairs, func(a, b int) bool { return remapped.Pairs[a].J < remapped.Pairs[b].J })
		if !reflect.DeepEqual(remapped, want[i]) {
			t.Errorf("%s candidate %d:\n streamed (remapped) %+v\n cold                %+v",
				label, i, remapped, want[i])
		}
	}
	inc, wantInc := p.Incidence(), cover.BuildIncidence(pj.Len(), got)
	if inc.NumTuples() != wantInc.NumTuples() {
		t.Fatalf("%s: incidence spans %d tuples, the index %d", label, inc.NumTuples(), wantInc.NumTuples())
	}
	for j := 0; j < pj.Len(); j++ {
		gc, gv := inc.Row(j)
		wc, wv := wantInc.Row(j)
		if !slices.Equal(gc, wc) || !slices.Equal(gv, wv) {
			t.Errorf("%s: incidence row %d is %v %v, the analyses give %v %v", label, j, gc, gv, wc, wv)
			return
		}
	}
}

// Interleaved AppendTarget batches must leave the problem's evidence
// and objective identical to a cold Prepare of the grown target —
// checked after every batch, through both the PrepareStreaming and
// the lazy (plain Prepare) upgrade path.
func TestAppendTargetMatchesColdPrepare(t *testing.T) {
	for ci, cfg := range streamConfigs() {
		sc, err := ibench.Generate(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		rng := rand.New(rand.NewSource(int64(ci)*13 + 5))
		initial, batches := splitTarget(sc.J, 4, rng)
		p := NewProblem(sc.I, initial, sc.Candidates)
		if ci%2 == 0 {
			p.PrepareStreaming(0)
		} else {
			p.Prepare() // first AppendTarget upgrades lazily
		}
		n := p.NumCandidates()
		for bi, batch := range batches {
			if _, err := p.AppendTarget(batch); err != nil {
				t.Fatalf("config %d batch %d: %v", ci, bi, err)
			}
			cold := coldProblemOf(p)
			assertEvidenceMatchesCold(t, "append", p, cold)
			// The objective is permutation-invariant: it must agree at
			// random selections without any remapping.
			sel := make([]bool, n)
			for trial := 0; trial < 10; trial++ {
				sel[rng.Intn(n)] = !sel[rng.Intn(n)]
				g, w := p.Objective(sel).Total(), cold.Objective(sel).Total()
				if math.Abs(g-w) > 1e-9 {
					t.Fatalf("config %d batch %d: streamed objective %v, cold %v", ci, bi, g, w)
				}
			}
		}
		if p.J.Len() != sc.J.Len() {
			t.Fatalf("config %d: streamed J has %d tuples, want %d", ci, p.J.Len(), sc.J.Len())
		}
	}
}

// Warm-started re-solves after appends must reach the same objective
// as a cold Prepare+Solve of the grown target.
func TestWarmStartedResolveMatchesCold(t *testing.T) {
	ctx := context.Background()
	for ci, cfg := range streamConfigs() {
		sc, err := ibench.Generate(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		rng := rand.New(rand.NewSource(int64(ci) + 77))
		initial, batches := splitTarget(sc.J, 3, rng)
		for _, name := range []string{"greedy", "collective"} {
			solver, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			p := NewProblem(sc.I, initial, sc.Candidates)
			p.PrepareStreaming(0)
			prev, err := solver.Solve(ctx, p)
			if err != nil {
				t.Fatalf("%s initial solve: %v", name, err)
			}
			for bi, batch := range batches {
				if _, err := p.AppendTarget(batch); err != nil {
					t.Fatal(err)
				}
				warm, err := solver.Solve(ctx, p, WithWarmStart(prev))
				if err != nil {
					t.Fatalf("%s warm solve batch %d: %v", name, bi, err)
				}
				coldSel, err := solver.Solve(ctx, coldProblemOf(p))
				if err != nil {
					t.Fatalf("%s cold solve batch %d: %v", name, bi, err)
				}
				if math.Abs(warm.Objective.Total()-coldSel.Objective.Total()) > 1e-6 {
					t.Errorf("config %d %s batch %d: warm objective %v, cold %v",
						ci, name, bi, warm.Objective.Total(), coldSel.Objective.Total())
				}
				prev = warm
			}
		}
	}
}

// Appending duplicates (or nothing) is a observable no-op.
func TestAppendTargetDedup(t *testing.T) {
	sc, err := ibench.Generate(streamConfigs()[0])
	if err != nil {
		t.Fatal(err)
	}
	p := NewProblem(sc.I, sc.J, sc.Candidates)
	p.PrepareStreaming(0)
	before := p.J.Len()
	delta, err := p.AppendTarget(sc.J.All()[:5]) // already present
	if err != nil {
		t.Fatal(err)
	}
	if p.J.Len() != before || delta.OldTuples != delta.NewTuples {
		t.Fatalf("duplicate append changed the target: %d→%d, delta %+v", before, p.J.Len(), delta)
	}
	if len(delta.ChangedTuples) != 0 || len(delta.PairsChanged) != 0 || len(delta.ErrorsChanged) != 0 {
		t.Fatalf("duplicate append reported changes: %+v", delta)
	}
	// Still solvable, still fresh.
	if err := p.CheckFresh(); err != nil {
		t.Fatal(err)
	}
}

// Appending tuples no candidate can cover takes the fast incidence
// path (no rebuild) and still accounts the new tuples as unexplained.
func TestAppendTargetUncoveredTuples(t *testing.T) {
	sc, err := ibench.Generate(streamConfigs()[0])
	if err != nil {
		t.Fatal(err)
	}
	p := NewProblem(sc.I, sc.J.Clone(), sc.Candidates)
	p.PrepareStreaming(0)
	sel := make([]bool, p.NumCandidates())
	base := p.Objective(sel).Total()
	alien := []data.Tuple{data.NewTuple("alien", "a", "b"), data.NewTuple("alien", "c", "d")}
	delta, err := p.AppendTarget(alien)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.PairsChanged) != 0 || len(delta.ChangedTuples) != 0 {
		t.Fatalf("alien append changed coverage: %+v", delta)
	}
	if got := p.Incidence().NumTuples(); got != p.JIndex().Len() {
		t.Fatalf("incidence spans %d tuples, index has %d", got, p.JIndex().Len())
	}
	// Each uncovered tuple adds exactly w₁ of unexplained mass.
	want := base + p.Weights.Explain*float64(len(alien))
	if got := p.Objective(sel).Total(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("objective after alien append %v, want %v", got, want)
	}
	assertEvidenceMatchesCold(t, "alien", p, coldProblemOf(p))
}

// AppendTarget on an unprepared problem prepares it first.
func TestAppendTargetBeforePrepare(t *testing.T) {
	sc, err := ibench.Generate(streamConfigs()[0])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	initial, batches := splitTarget(sc.J, 1, rng)
	p := NewProblem(sc.I, initial, sc.Candidates)
	if _, err := p.AppendTarget(batches[0]); err != nil {
		t.Fatal(err)
	}
	assertEvidenceMatchesCold(t, "unprepared", p, coldProblemOf(p))
}

// Mutating a problem's instances directly after Prepare must surface
// as an explicit error from Solve (and AppendTarget), and a panic
// from Objective — not silently stale results.
func TestStaleEvidenceDetected(t *testing.T) {
	sc, err := ibench.Generate(streamConfigs()[0])
	if err != nil {
		t.Fatal(err)
	}
	t.Run("target", func(t *testing.T) {
		p := NewProblem(sc.I, sc.J.Clone(), sc.Candidates)
		p.Prepare()
		p.J.Add(data.NewTuple("zzz", "a", "b")) // direct mutation
		if _, err := (GreedySolver{}).Solve(context.Background(), p); err == nil {
			t.Error("Solve accepted a stale target")
		}
		if _, err := p.AppendTarget(nil); err == nil {
			t.Error("AppendTarget accepted a stale target")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Objective did not panic on a stale target")
				}
			}()
			p.Objective(make([]bool, p.NumCandidates()))
		}()
	})
	t.Run("source", func(t *testing.T) {
		p := NewProblem(sc.I.Clone(), sc.J, sc.Candidates)
		p.Prepare()
		p.I.Remove(p.I.All()[0])
		if _, err := (GreedySolver{}).Solve(context.Background(), p); err == nil {
			t.Error("Solve accepted a stale source")
		}
	})
	t.Run("append keeps fresh", func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		initial, batches := splitTarget(sc.J, 2, rng)
		p := NewProblem(sc.I, initial, sc.Candidates)
		p.Prepare()
		for _, b := range batches {
			if _, err := p.AppendTarget(b); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := (GreedySolver{}).Solve(context.Background(), p); err != nil {
			t.Errorf("Solve rejected a problem grown only via AppendTarget: %v", err)
		}
	})
}
