package ibench

// Churn scenario family: a generated scenario turned into a sequence
// of interleaved lifecycle mutations — target appends, target
// removals, and candidate additions — the workload of the full
// streaming contract (docs/LIFECYCLE.md). Like the streaming split,
// a churn plan is fully determined by its configuration, so churn
// benchmarks are reproducible tuple for tuple.

import (
	"fmt"
	"math/rand"

	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// ChurnConfig controls how a scenario is dealt into a churn plan. The
// zero value is not usable; Steps must be positive.
type ChurnConfig struct {
	// Steps is the number of mutation steps after the initial
	// instance (≥ 1). Each step carries an append and, in a seeded
	// pattern, a removal and/or a candidate addition.
	Steps int
	// Seed drives the arrival shuffle and the removal picks. 0 means
	// seed 1 — churn plans are always shuffled, since removals of
	// relation-grouped tuples would be unrealistically clustered.
	Seed int64
}

// A churn plan starts from churnInitialFrac of the J tuples and
// withholds churnHoldoutFrac of the candidates at time zero, adding
// them back across the steps.
const (
	churnInitialFrac = 0.5
	churnHoldoutFrac = 0.25
)

// ChurnStep is one mutation step: apply Append, then Remove, then
// AddCandidates (any of them may be empty).
type ChurnStep struct {
	Append        []data.Tuple
	Remove        []data.Tuple
	AddCandidates tgd.Mapping
}

// ChurnStream is a scenario dealt into an initial state plus mutation
// steps. Replaying every step leaves the target at exactly the live
// tuples of the plan (appends minus removals) and the candidate set at
// the scenario's full mapping.
type ChurnStream struct {
	// Initial is the target data example at time zero.
	Initial *data.Instance
	// Candidates is the candidate set at time zero (the scenario's
	// mapping minus the holdout).
	Candidates tgd.Mapping
	// Steps are the successive mutations, in order.
	Steps []ChurnStep
}

// TotalCandidatesAdded counts the candidates added across all steps.
func (s *ChurnStream) TotalCandidatesAdded() int {
	n := 0
	for _, st := range s.Steps {
		n += len(st.AddCandidates)
	}
	return n
}

// SplitChurn deals the scenario into a churn plan. Equal
// configurations split equal scenarios identically.
//
// The plan appends the held-back half of J across the steps (like
// SplitTarget), removes a seeded sample of previously present tuples
// on every other step (a removed tuple may be re-appended by a later
// step), and deals the candidate holdout back across the steps, so a
// replay exercises every lifecycle mutation the contract documents.
func SplitChurn(sc *Scenario, cfg ChurnConfig) (*ChurnStream, error) {
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("ibench: churn Steps must be positive")
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	all := sc.J.All()
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	k := int(float64(len(all)) * churnInitialFrac)
	if k < 1 {
		k = 1
	}
	if k > len(all) {
		k = len(all)
	}
	out := &ChurnStream{Initial: data.NewInstance()}
	for _, t := range all[:k] {
		out.Initial.Add(t)
	}

	// Candidate holdout: the tail of a seeded permutation, dealt back
	// across the steps.
	nc := len(sc.Candidates)
	perm := rng.Perm(nc)
	nHold := int(float64(nc) * churnHoldoutFrac)
	if nHold > nc-1 {
		nHold = nc - 1 // keep at least one candidate at time zero
	}
	out.Candidates = make(tgd.Mapping, 0, nc-nHold)
	for _, i := range perm[:nc-nHold] {
		out.Candidates = append(out.Candidates, sc.Candidates[i])
	}
	holdout := make(tgd.Mapping, 0, nHold)
	for _, i := range perm[nc-nHold:] {
		holdout = append(holdout, sc.Candidates[i])
	}

	// present mirrors the live target as the plan replays; removals
	// sample from it, and removed tuples go back on the append queue so
	// later steps can re-add them (re-appends land in fresh slots).
	present := append([]data.Tuple(nil), all[:k]...)
	pending := append([]data.Tuple(nil), all[k:]...)
	out.Steps = make([]ChurnStep, cfg.Steps)
	for b := 0; b < cfg.Steps; b++ {
		step := &out.Steps[b]
		// Append an even share of the pending queue. The queue can grow
		// by removed tuples, so share by remaining steps, not a fixed
		// slice of the original tail.
		n := len(pending) / (cfg.Steps - b)
		if n > 0 {
			step.Append = append([]data.Tuple(nil), pending[:n]...)
			pending = pending[n:]
			present = append(present, step.Append...)
		}
		// Every other step removes ~5% of the live target.
		if b%2 == 1 && len(present) > 2 {
			r := len(present) / 20
			if r < 1 {
				r = 1
			}
			for i := 0; i < r && len(present) > 2; i++ {
				pick := rng.Intn(len(present))
				step.Remove = append(step.Remove, present[pick])
				present[pick] = present[len(present)-1]
				present = present[:len(present)-1]
			}
			pending = append(pending, step.Remove...)
		}
		// Deal the candidate holdout back evenly.
		if m := len(holdout) / (cfg.Steps - b); m > 0 {
			step.AddCandidates = append(tgd.Mapping(nil), holdout[:m]...)
			holdout = holdout[m:]
		}
	}
	return out, nil
}
