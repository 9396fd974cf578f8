package shard_test

import (
	"context"
	"testing"

	"schemamap/internal/core"
	"schemamap/internal/data"
	"schemamap/internal/ibench"
	"schemamap/internal/shard"
)

// countTuples sums the tuples across a decomposition's shards.
func countTuples(shards []shard.Shard) int {
	n := 0
	for _, sh := range shards {
		n += len(sh.Tuples)
	}
	return n
}

// Warm re-solves must reuse the retained decomposition while the
// evidence is unchanged (a duplicate-only append changes nothing), and
// recompute it after any append that alters it — a coverage-changing
// append or a pure uncovered append. Cold solves must not populate the
// cache at all.
func TestSplitCacheAcrossWarmResolves(t *testing.T) {
	sc, err := ibench.Generate(noisyConfig(7, 10, 7))
	if err != nil {
		t.Fatal(err)
	}
	all := sc.J.All()
	initial := data.NewInstance()
	for _, tp := range all[:len(all)-3] {
		initial.Add(tp)
	}
	p := core.NewProblem(sc.I, initial, sc.Candidates)
	p.PrepareStreaming(0)

	ctx := context.Background()
	s := shard.Solver{Inner: "greedy", TinyCap: -1}

	cold, err := s.Solve(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if p.LoadSplitCache() != nil {
		t.Fatal("cold solve populated the split cache")
	}

	warm1, err := s.Solve(ctx, p, core.WithWarmStart(cold))
	if err != nil {
		t.Fatal(err)
	}
	v1, ok := p.LoadSplitCache().([]shard.Shard)
	if !ok || len(v1) == 0 {
		t.Fatalf("warm solve did not retain the split (cache = %T)", p.LoadSplitCache())
	}

	// Unchanged evidence: the next warm re-solve reuses the retained
	// slice (the store only happens on a fresh Split).
	if _, err := s.Solve(ctx, p, core.WithWarmStart(warm1)); err != nil {
		t.Fatal(err)
	}
	v2 := p.LoadSplitCache().([]shard.Shard)
	if &v1[0] != &v2[0] {
		t.Fatal("warm re-solve on unchanged evidence rebuilt the split")
	}

	// A pure uncovered append leaves the candidate partition unchanged,
	// yet the candidate-free shard is not, so the cache must invalidate.
	d, err := p.AppendTarget([]data.Tuple{data.NewTuple("alien", "a", "b")})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.PairsChanged) != 0 || len(d.ChangedTuples) != 0 || len(d.ErrorsChanged) != 0 {
		t.Fatalf("uncovered append changed evidence: %+v", d)
	}
	if p.LoadSplitCache() != nil {
		t.Fatal("split cache survived an uncovered append")
	}
	warm2, err := s.Solve(ctx, p, core.WithWarmStart(warm1))
	if err != nil {
		t.Fatal(err)
	}
	v3 := p.LoadSplitCache().([]shard.Shard)
	if got, want := countTuples(v3), p.JIndex().Len(); got != want {
		t.Fatalf("refreshed split spans %d tuples, problem has %d", got, want)
	}

	// Re-appending a tuple J already holds changes nothing: the
	// retained split survives.
	if _, err := p.AppendTarget(all[:1]); err != nil {
		t.Fatal(err)
	}
	if v, ok := p.LoadSplitCache().([]shard.Shard); !ok || &v[0] != &v3[0] {
		t.Fatal("a duplicate-only append invalidated the split cache")
	}

	// A coverage-changing append invalidates too.
	d, err = p.AppendTarget(all[len(all)-3:])
	if err != nil {
		t.Fatal(err)
	}
	if len(d.PairsChanged) == 0 && len(d.ChangedTuples) == 0 && len(d.ErrorsChanged) == 0 {
		t.Skip("held-back tuples produced no coverage change in this scenario")
	}
	if p.LoadSplitCache() != nil {
		t.Fatal("split cache survived a coverage-changing append")
	}
	warm3, err := s.Solve(ctx, p, core.WithWarmStart(warm2))
	if err != nil {
		t.Fatal(err)
	}

	// The warm sharded result on the grown problem must equal the
	// unsharded inner solver's (sharding with TinyCap -1 is
	// bit-identical to unsharded greedy).
	flat, err := core.MustGet("greedy").Solve(ctx, p, core.WithWarmStart(warm2))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(warm3.Objective.Total(), flat.Objective.Total()) {
		t.Fatalf("warm sharded objective %v != unsharded %v",
			warm3.Objective.Total(), flat.Objective.Total())
	}
}
