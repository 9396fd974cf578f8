package ibench

// Streaming scenario family: a generated scenario's target data
// example, split into an initial instance plus a sequence of append
// batches arriving over time — the workload of the incremental
// evidence engine (core.Problem.AppendTarget) and the warm-start
// re-solve path. The split is fully determined by its configuration,
// so streaming runs are as reproducible as the scenarios themselves.

import (
	"fmt"
	"math/rand"

	"schemamap/internal/data"
)

// StreamConfig controls how a scenario's target is dealt into a
// stream. The zero value is not usable; Batches must be positive.
type StreamConfig struct {
	// Batches is the number of append batches after the initial
	// instance (≥ 1).
	Batches int
	// InitialFrac is the fraction of J tuples in the initial target
	// (0 < f < 1; 0 means the default 0.5).
	InitialFrac float64
	// Seed shuffles the arrival order; 0 keeps the instance's
	// relation-grouped order. Tuple-by-tuple arrival of a live system
	// interleaves relations, so benchmarks use a non-zero seed.
	Seed int64
}

// TargetStream is a scenario target split for streaming ingestion:
// Initial ∪ Batches equals the scenario's J, disjointly.
type TargetStream struct {
	// Initial is the target data example at time zero.
	Initial *data.Instance
	// Batches are the successive appends, in arrival order.
	Batches [][]data.Tuple
}

// TotalAppended counts the tuples across all batches.
//
//lint:testonly ibench stream tests check the split sizes with it
func (s *TargetStream) TotalAppended() int {
	n := 0
	for _, b := range s.Batches {
		n += len(b)
	}
	return n
}

// SplitTarget deals the scenario's target J into a stream. Equal
// configurations split equal scenarios identically.
func SplitTarget(sc *Scenario, cfg StreamConfig) (*TargetStream, error) {
	if cfg.Batches <= 0 {
		return nil, fmt.Errorf("ibench: stream Batches must be positive")
	}
	frac := cfg.InitialFrac
	if frac == 0 {
		frac = 0.5
	}
	if frac <= 0 || frac >= 1 {
		return nil, fmt.Errorf("ibench: stream InitialFrac must be in (0,1), got %g", cfg.InitialFrac)
	}
	all := sc.J.All()
	if cfg.Seed != 0 {
		rng := rand.New(rand.NewSource(cfg.Seed))
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	}
	k := int(float64(len(all)) * frac)
	if k < 1 {
		k = 1
	}
	if k > len(all) {
		k = len(all)
	}
	out := &TargetStream{Initial: data.NewInstance()}
	for _, t := range all[:k] {
		out.Initial.Add(t)
	}
	rest := all[k:]
	for b := 0; b < cfg.Batches; b++ {
		lo, hi := b*len(rest)/cfg.Batches, (b+1)*len(rest)/cfg.Batches
		out.Batches = append(out.Batches, append([]data.Tuple(nil), rest[lo:hi]...))
	}
	return out, nil
}
