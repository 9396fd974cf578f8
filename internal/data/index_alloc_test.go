package data_test

import (
	"testing"

	"schemamap/internal/data"
	"schemamap/internal/ibench"
)

// shardedTarget returns the target tuples of the sharded-throughput
// scenario shape (70 primitives) at the given rows per source relation.
func shardedTarget(tb testing.TB, rows int) []data.Tuple {
	tb.Helper()
	cfg := ibench.DefaultConfig(70, 70)
	cfg.Rows = rows
	sc, err := ibench.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return sc.J.All()
}

// IndexTuples allocates per (relation, position) list set, not per
// tuple: quadrupling the rows of the sharded scenario (≈11k → ≈45k
// target tuples) may raise its allocations by half at most. The
// per-value slice appends this replaced allocated per tuple.
func TestIndexTuplesAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 45k-tuple scenario")
	}
	allocs := func(rows int) float64 {
		tuples := shardedTarget(t, rows)
		return testing.AllocsPerRun(2, func() { data.IndexTuples(tuples) })
	}
	small, large := allocs(100), allocs(400)
	t.Logf("IndexTuples allocates %.0f objects at Rows=100, %.0f at Rows=400", small, large)
	if large > 1.5*small {
		t.Fatalf("IndexTuples allocations grew from %.0f to %.0f with 4x the rows, want at most x1.5", small, large)
	}
}

func BenchmarkIndexTuples(b *testing.B) {
	tuples := shardedTarget(b, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data.IndexTuples(tuples)
	}
}
