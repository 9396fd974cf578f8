package cover

import (
	"math/rand"
	"reflect"
	"testing"

	"schemamap/internal/chase"
	"schemamap/internal/data"
	"schemamap/internal/ibench"
	"schemamap/internal/tgd"
)

// scenarioConfigs mirrors the benchmark harness's seeded S/M ibench
// scales (bench.Scales) plus a noisier small scenario, without
// importing internal/bench (which depends on core, which depends on
// this package).
func scenarioConfigs() []ibench.Config {
	specs := []struct {
		n        int
		rows     int
		piCorr   float64
		piErr    float64
		piUnexpl float64
		seed     int64
	}{
		{7, 10, 20, 10, 10, 7},   // S scale
		{28, 24, 20, 10, 10, 28}, // M scale
		{7, 8, 50, 20, 20, 3},    // heavy noise
	}
	var out []ibench.Config
	for _, s := range specs {
		cfg := ibench.DefaultConfig(s.n, s.seed)
		cfg.Rows = s.rows
		cfg.PiCorresp = s.piCorr
		cfg.PiErrors = s.piErr
		cfg.PiUnexplained = s.piUnexpl
		out = append(out, cfg)
	}
	return out
}

// The indexed sparse pipeline must reproduce the reference pipeline
// bit for bit on the harness's seeded scenarios — every covers
// degree, error count and block count — at every worker count.
func TestAnalyzeMatchesReferenceOnScenarios(t *testing.T) {
	for ci, cfg := range scenarioConfigs() {
		sc, err := ibench.Generate(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		jidx := IndexJ(sc.J)
		want := AnalyzeReference(sc.I, jidx, sc.Candidates, DefaultOptions())
		for _, workers := range []int{1, 4} {
			got := AnalyzeN(sc.I, jidx, sc.Candidates, DefaultOptions(), workers)
			if len(got) != len(want) {
				t.Fatalf("config %d workers %d: %d analyses vs reference %d", ci, workers, len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("config %d workers %d candidate %d:\n got  %+v\n want %+v",
						ci, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// The equality must also hold under the E8 ablation (no
// corroboration) and under tight hom limits, where identical
// enumeration order between the two paths is what keeps truncated
// evidence identical. The link-table scenario's all-null link atoms
// are the inert leaves the searcher counts instead of visiting under
// corroboration; a limit that falls inside such a run must truncate
// the evidence exactly where the reference's enumeration does.
func TestAnalyzeMatchesReferenceAblations(t *testing.T) {
	link := ibench.DefaultConfig(70, 70)
	link.Rows = 20
	opts := []Options{{Corroboration: false}}
	for _, limit := range []int{1, 2, 3, 5, 7} {
		opts = append(opts, Options{Corroboration: true, HomLimit: limit}, Options{Corroboration: false, HomLimit: limit})
	}
	for ci, cfg := range []ibench.Config{scenarioConfigs()[0], link} {
		sc, err := ibench.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		jidx := IndexJ(sc.J)
		for _, o := range opts {
			want := AnalyzeReference(sc.I, jidx, sc.Candidates, o)
			got := Analyze(sc.I, jidx, sc.Candidates, o)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("scenario %d, opts %+v: indexed path diverged from reference", ci, o)
			}
		}
	}
}

// Random small scenarios widen the differential net beyond the ibench
// generator's shapes (joins through shared nulls, repeated nulls,
// noise tuples). Without corroboration a tuple the searcher would
// leave inert covers its images, so the ablation must visit them.
func TestAnalyzeMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 40; trial++ {
		I, J, cands := randomScenario(rng)
		jidx := IndexJ(J)
		for _, opts := range []Options{DefaultOptions(), {Corroboration: false}} {
			want := AnalyzeReference(I, jidx, cands, opts)
			got := Analyze(I, jidx, cands, opts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, opts %+v: indexed path diverged from reference\n got  %+v\n want %+v",
					trial, opts, got, want)
			}
		}
	}
}

// Incidence must be the exact inverse of the Pairs evidence, rows
// sorted by candidate.
func TestIncidenceInvertsAnalyses(t *testing.T) {
	sc, err := ibench.Generate(scenarioConfigs()[0])
	if err != nil {
		t.Fatal(err)
	}
	jidx := IndexJ(sc.J)
	analyses := Analyze(sc.I, jidx, sc.Candidates, DefaultOptions())
	inc := BuildIncidence(jidx.Len(), analyses)
	if inc.NumTuples() != jidx.Len() {
		t.Fatalf("incidence spans %d tuples, want %d", inc.NumTuples(), jidx.Len())
	}
	total := 0
	for j := 0; j < jidx.Len(); j++ {
		cands, covs := inc.Row(j)
		total += len(cands)
		for k, i := range cands {
			if k > 0 && cands[k-1] >= i {
				t.Fatalf("tuple %d: row not strictly ascending: %v", j, cands)
			}
			if got := analyses[i].CoversOf(j); got != covs[k] {
				t.Fatalf("tuple %d cand %d: incidence %v vs analysis %v", j, i, covs[k], got)
			}
		}
	}
	want := 0
	for i := range analyses {
		want += len(analyses[i].Pairs)
		for _, pr := range analyses[i].Pairs {
			cands, _ := inc.Row(int(pr.J))
			found := false
			for _, c := range cands {
				if int(c) == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("pair (cand %d, tuple %d) missing from incidence", i, pr.J)
			}
		}
	}
	if total != want {
		t.Fatalf("incidence has %d entries, analyses have %d", total, want)
	}
}

func TestPairsFromMap(t *testing.T) {
	pairs := PairsFromMap(map[int]float64{5: 0.5, 1: 1, 9: 0.25, 3: 0})
	want := []CoverPair{{J: 1, Cov: 1}, {J: 5, Cov: 0.5}, {J: 9, Cov: 0.25}}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("PairsFromMap = %v, want %v", pairs, want)
	}
	a := Analysis{Pairs: pairs}
	if a.CoversOf(5) != 0.5 || a.CoversOf(2) != 0 || a.CoversOf(9) != 0.25 {
		t.Fatalf("CoversOf lookups wrong on %v", pairs)
	}
	if a.NumCovered() != 3 || !approx(a.TotalCoverage(), 1.75) {
		t.Fatalf("NumCovered/TotalCoverage wrong on %v", pairs)
	}
}

// TestAnalyzeNAllocs pins the allocation cost of a cold analysis of
// the sharded-throughput scenario shape (70 primitives, 100 rows,
// ≈11k target tuples). The chase binds slices rather than per-tuple
// maps, every block is folded straight into its candidate's row with
// no key, memo entry or block row, the searcher probes the posting
// lists without memos and reuses its scratch, and only the chase
// tuples of existential-free atoms are keyed to count K_θ, so the
// analysis allocates ≈31k objects. Keying every chase tuple it
// allocated ≈47k, through the block memo ≈90k, with the searcher's
// string-keyed candidate and embedding memos ≈162k, and with the
// map-binding chase and boxed memo keys ≈403k.
func TestAnalyzeNAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("analyses an 11k-tuple scenario")
	}
	sc := shardedScenario(t)
	jidx := IndexJ(sc.J)
	allocs := testing.AllocsPerRun(2, func() {
		AnalyzeN(sc.I, jidx, sc.Candidates, DefaultOptions(), 1)
	})
	t.Logf("AnalyzeN allocates %.0f objects over %d target tuples and %d candidates", allocs, jidx.Len(), len(sc.Candidates))
	if allocs > 40_000 {
		t.Fatalf("AnalyzeN allocated %.0f objects, want at most 40000", allocs)
	}
}

// On the sharded-throughput scenario most matches differ only in the
// image of an inert leaf — a vertical partitioning's all-null link
// atom whose partner was skipped — so a cold analysis must count those
// runs, not visit them: AnalyzeN's single-worker body (analyzeOne per
// candidate, folding every block into the candidate's row) may call
// its match callback for at most a quarter of the matches its blocks
// have, which a plain search of every block counts. Visiting every
// match calls it for all of them.
func TestAnalyzeNCountsInertRuns(t *testing.T) {
	sc := shardedScenario(t)
	jidx := IndexJ(sc.J)
	w := newAnalyzeWorker(jidx)
	emits := 0
	w.emit = func(m *data.IndexedMatch) bool {
		emits++
		return w.addMatch(m)
	}
	for i, d := range sc.Candidates {
		w.analyzeOne(i, d, sc.I, DefaultOptions(), nil)
	}
	homs := 0
	plain := data.NewSearcher(jidx.idx)
	for _, d := range sc.Candidates {
		chase.Each(sc.I, tgd.Mapping{d}, nil, func(b chase.Block) {
			homs += plain.EnumeratePartialHoms(b.Tuples, 0, func(*data.IndexedMatch) bool { return true })
		})
	}
	t.Logf("%d match callbacks for %d matches (%.0f%%)", emits, homs, 100*float64(emits)/float64(homs))
	if 4*emits > homs {
		t.Fatalf("%d match callbacks for %d matches, want at most a quarter", emits, homs)
	}
}

// shardedScenario generates the sharded-throughput scenario shape: 70
// primitives, 100 rows, ≈11k target tuples.
func shardedScenario(tb testing.TB) *ibench.Scenario {
	cfg := ibench.DefaultConfig(70, 70)
	cfg.Rows = 100
	sc, err := ibench.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return sc
}

// BenchmarkAnalyzeNSharded is the cold evidence path of one
// sharded-throughput op: index the ≈11k-tuple target of the 70-primitive
// scenario, then analyse every candidate on 2 workers.
func BenchmarkAnalyzeNSharded(b *testing.B) {
	sc := shardedScenario(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AnalyzeN(sc.I, IndexJ(sc.J), sc.Candidates, DefaultOptions(), 2)
	}
}

// BenchmarkAnalyzeNShardedOneWorker analyses every candidate of the
// sharded-throughput scenario on one worker over a prebuilt index: the
// yardstick of BenchmarkExplainSharded.
func BenchmarkAnalyzeNShardedOneWorker(b *testing.B) {
	sc := shardedScenario(b)
	jidx := IndexJ(sc.J)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AnalyzeN(sc.I, jidx, sc.Candidates, DefaultOptions(), 1)
	}
}

// BenchmarkExplainSharded explains the selection of every candidate of
// the sharded-throughput scenario over a prebuilt index. It runs the
// same searches as BenchmarkAnalyzeNShardedOneWorker, without the block
// memo, plus the witness bookkeeping.
func BenchmarkExplainSharded(b *testing.B) {
	sc := shardedScenario(b)
	jidx := IndexJ(sc.J)
	all := make([]bool, len(sc.Candidates))
	for i := range all {
		all[i] = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Explain(sc.I, jidx, sc.Candidates, all, DefaultOptions())
	}
}

func BenchmarkAnalyzeNIndexed(b *testing.B) {
	sc, err := ibench.Generate(scenarioConfigs()[1])
	if err != nil {
		b.Fatal(err)
	}
	jidx := IndexJ(sc.J)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AnalyzeN(sc.I, jidx, sc.Candidates, DefaultOptions(), 1)
	}
}

func BenchmarkAnalyzeNReference(b *testing.B) {
	sc, err := ibench.Generate(scenarioConfigs()[1])
	if err != nil {
		b.Fatal(err)
	}
	jidx := IndexJ(sc.J)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AnalyzeReference(sc.I, jidx, sc.Candidates, DefaultOptions())
	}
}
