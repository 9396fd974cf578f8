package core

// Differential tests for the full mapping lifecycle (RemoveTarget,
// ApplySourceDelta, candidate churn): after every interleaved batch
// the incremental evidence must be value-identical to a cold Prepare
// of the mutated problem, and the retained collective grounding must
// stay factor-for-factor identical (exact float bits) to a cold
// buildGrounding. Plus the staleness contract: Evaluators panic when
// used across an unapplied mutation, and RemoveTarget errors on
// unknown tuples.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"schemamap/internal/data"
	"schemamap/internal/ibench"
	"schemamap/internal/tgd"
)

// churnState tracks the mirror of what the problem should hold.
type churnState struct {
	p       *Problem
	rng     *rand.Rand
	pool    []data.Tuple // tuples not yet in the target (incl. re-appendable removed ones)
	present []data.Tuple // tuples currently in the target
	holdout tgd.Mapping  // candidates available to add
}

// step applies one random lifecycle mutation and returns its label, or
// "" when the drawn op was not applicable this round.
func (s *churnState) step(t *testing.T) string {
	t.Helper()
	switch s.rng.Intn(5) {
	case 0, 1: // append (twice as likely: keeps the target from draining)
		if len(s.pool) == 0 {
			return ""
		}
		k := 1 + s.rng.Intn(3)
		if k > len(s.pool) {
			k = len(s.pool)
		}
		batch := append([]data.Tuple(nil), s.pool[:k]...)
		s.pool = s.pool[k:]
		if _, err := s.p.AppendTarget(batch); err != nil {
			t.Fatalf("append: %v", err)
		}
		s.present = append(s.present, batch...)
		return fmt.Sprintf("append %d", k)
	case 2: // remove
		if len(s.present) <= 2 {
			return ""
		}
		k := 1 + s.rng.Intn(2)
		var batch []data.Tuple
		for n := 0; n < k && len(s.present) > 2; n++ {
			i := s.rng.Intn(len(s.present))
			batch = append(batch, s.present[i])
			s.present[i] = s.present[len(s.present)-1]
			s.present = s.present[:len(s.present)-1]
		}
		if _, err := s.p.RemoveTarget(batch); err != nil {
			t.Fatalf("remove: %v", err)
		}
		s.pool = append(s.pool, batch...) // removable tuples may return later
		return fmt.Sprintf("remove %d", len(batch))
	case 3: // add candidates
		if len(s.holdout) == 0 {
			return ""
		}
		k := 1 + s.rng.Intn(2)
		if k > len(s.holdout) {
			k = len(s.holdout)
		}
		batch := append(tgd.Mapping(nil), s.holdout[:k]...)
		s.holdout = s.holdout[k:]
		if _, err := s.p.AddCandidates(batch); err != nil {
			t.Fatalf("add candidates: %v", err)
		}
		return fmt.Sprintf("add-cand %d", k)
	default: // retire a candidate
		if s.p.NumCandidates() <= 2 {
			return ""
		}
		i := s.rng.Intn(s.p.NumCandidates())
		retired := s.p.Candidates[i]
		if err := s.p.RemoveCandidates([]int{i}); err != nil {
			t.Fatalf("retire candidate: %v", err)
		}
		s.holdout = append(s.holdout, retired) // may be re-added later
		return fmt.Sprintf("retire-cand %d", i)
	}
}

// Random interleavings of append/remove/candidate-add/candidate-retire
// batches must keep the evidence bit-identical to a cold Prepare and
// the retained MRF identical to a cold buildGrounding, after every
// single batch.
func TestLifecycleChurnMatchesColdPrepare(t *testing.T) {
	for ci, cfg := range streamConfigs() {
		sc, err := ibench.Generate(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		rng := rand.New(rand.NewSource(int64(ci)*101 + 17))
		all := sc.J.All()
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		half := len(all) / 2
		initial := data.NewInstance()
		for _, tu := range all[:half] {
			initial.Add(tu)
		}
		nCand := len(sc.Candidates)
		baseCands := append(tgd.Mapping{}, sc.Candidates[:nCand*3/4]...)
		s := &churnState{
			rng:     rng,
			pool:    append([]data.Tuple(nil), all[half:]...),
			present: append([]data.Tuple(nil), all[:half]...),
			holdout: append(tgd.Mapping(nil), sc.Candidates[nCand*3/4:]...),
		}
		s.p = NewProblem(sc.I, initial, baseCands)
		s.p.PrepareStreaming(0)
		_ = s.p.directGrounding() // make every target mutation exercise applyDelta

		for step := 0; step < 12; step++ {
			op := s.step(t)
			if op == "" {
				continue
			}
			label := fmt.Sprintf("config %d step %d (%s)", ci, step, op)
			cold := coldProblemOf(s.p)
			assertEvidenceMatchesCold(t, label, s.p, cold)
			got := canonicalMRF(s.p.directGrounding().mrf)
			want := canonicalMRF(cold.SelectionMRF())
			diffCanonical(t, label, got, want)
			// Objective parity at random selections (permutation- and
			// tombstone-invariant, no remapping needed).
			n := s.p.NumCandidates()
			sel := make([]bool, n)
			for trial := 0; trial < 6; trial++ {
				sel[s.rng.Intn(n)] = !sel[s.rng.Intn(n)]
				g, w := s.p.Objective(sel).Total(), cold.Objective(sel).Total()
				if math.Abs(g-w) > 1e-9 {
					t.Fatalf("%s: churned objective %v, cold %v", label, g, w)
				}
			}
			if got, want := s.p.NumLiveTuples(), len(s.present); got != want {
				t.Fatalf("%s: %d live tuples, mirror has %d", label, got, want)
			}
		}
	}
}

// Source deltas must re-derive the affected candidates' evidence so it
// matches a cold Prepare against the mutated source, interleaved with
// target appends and removals.
func TestApplySourceDeltaMatchesColdPrepare(t *testing.T) {
	for ci, cfg := range streamConfigs() {
		sc, err := ibench.Generate(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		rng := rand.New(rand.NewSource(int64(ci)*7 + 3))
		p := NewProblem(sc.I.Clone(), sc.J.Clone(), sc.Candidates)
		p.PrepareStreaming(0)
		_ = p.directGrounding()
		var removedSrc []data.Tuple
		for step := 0; step < 6; step++ {
			var d SourceDelta
			if step%2 == 0 || len(removedSrc) == 0 {
				// Remove a couple of random source tuples.
				src := p.I.All()
				for k := 0; k < 2; k++ {
					d.Remove = append(d.Remove, src[rng.Intn(len(src))])
				}
			} else {
				// Put previously removed ones back.
				d.Add, removedSrc = removedSrc, nil
			}
			delta, err := p.ApplySourceDelta(d)
			if err != nil {
				t.Fatalf("config %d step %d: %v", ci, step, err)
			}
			removedSrc = append(removedSrc, d.Remove...)
			if err := p.CheckFresh(); err != nil {
				t.Fatalf("config %d step %d: source delta left the problem stale: %v", ci, step, err)
			}
			if delta.OldTuples != delta.NewTuples {
				t.Fatalf("config %d step %d: source delta changed the slot count: %+v", ci, step, delta)
			}
			label := fmt.Sprintf("config %d source step %d", ci, step)
			cold := coldProblemOf(p)
			assertEvidenceMatchesCold(t, label, p, cold)
			got := canonicalMRF(p.directGrounding().mrf)
			want := canonicalMRF(cold.SelectionMRF())
			diffCanonical(t, label, got, want)
		}
	}
}

// RemoveTarget on a tuple not in the target must return a descriptive
// error and leave the problem untouched — not silently no-op.
func TestRemoveTargetUnknownTuple(t *testing.T) {
	sc, err := ibench.Generate(streamConfigs()[0])
	if err != nil {
		t.Fatal(err)
	}
	p := NewProblem(sc.I, sc.J.Clone(), sc.Candidates)
	p.PrepareStreaming(0)
	before := p.NumLiveTuples()
	alien := data.NewTuple("alien", "a", "b")
	victim := p.JIndex().Tuples[0]
	_, err = p.RemoveTarget([]data.Tuple{victim, alien})
	if err == nil {
		t.Fatal("RemoveTarget accepted a tuple that is not in the target")
	}
	if !strings.Contains(err.Error(), "not in the target") {
		t.Fatalf("unhelpful RemoveTarget error: %v", err)
	}
	if got := p.NumLiveTuples(); got != before {
		t.Fatalf("failed RemoveTarget still removed tuples: %d → %d", before, got)
	}
	if err := p.CheckFresh(); err != nil {
		t.Fatalf("failed RemoveTarget left the problem stale: %v", err)
	}
	// Removing an already-removed tuple errors too (it is unknown now).
	if _, err := p.RemoveTarget([]data.Tuple{victim}); err != nil {
		t.Fatalf("first removal: %v", err)
	}
	if _, err := p.RemoveTarget([]data.Tuple{victim}); err == nil {
		t.Fatal("RemoveTarget accepted an already-removed tuple")
	}
}

// mustPanic runs fn and reports whether it panicked.
func mustPanic(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return
}

// An Evaluator created before a RemoveTarget must panic on use until
// the delta is applied (ExtendTarget) or the state is rebuilt
// (Resync) — same contract as direct mutation.
func TestEvaluatorStaleAfterRemove(t *testing.T) {
	sc, err := ibench.Generate(streamConfigs()[0])
	if err != nil {
		t.Fatal(err)
	}
	p := NewProblem(sc.I, sc.J.Clone(), sc.Candidates)
	p.PrepareStreaming(0)
	n := p.NumCandidates()
	sel := make([]bool, n)
	sel[0] = true
	ev := NewEvaluator(p, sel)
	delta, err := p.RemoveTarget(p.JIndex().Tuples[:3])
	if err != nil {
		t.Fatal(err)
	}
	if !mustPanic(func() { ev.Total() }) {
		t.Error("Total did not panic on a post-removal evaluator")
	}
	if !mustPanic(func() { ev.FlipDelta(0) }) {
		t.Error("FlipDelta did not panic on a post-removal evaluator")
	}
	if !mustPanic(func() { ev.Flip(1) }) {
		t.Error("Flip did not panic on a post-removal evaluator")
	}
	// ExtendTarget recovers it, bit-matching a fresh evaluator.
	ev.ExtendTarget(delta)
	fresh := NewEvaluator(p, sel)
	if g, w := ev.Total(), fresh.Total(); math.Abs(g-w) > 1e-9 {
		t.Fatalf("extended evaluator total %v, fresh %v", g, w)
	}
	// Resync is the escape hatch for a second removal.
	if _, err := p.RemoveTarget(p.JIndex().Tuples[3:5]); err != nil {
		t.Fatal(err)
	}
	ev.Resync()
	fresh = NewEvaluator(p, sel)
	if g, w := ev.Total(), fresh.Total(); math.Abs(g-w) > 1e-9 {
		t.Fatalf("resynced evaluator total %v, fresh %v", g, w)
	}
	if g, w := ev.Total(), p.Objective(sel).Total(); math.Abs(g-w) > 1e-9 {
		t.Fatalf("resynced evaluator total %v, Objective %v", g, w)
	}
}

// ExtendTarget must track Totals across an interleaved append/remove/
// source-delta sequence, and reject out-of-order deltas.
func TestEvaluatorExtendAcrossLifecycle(t *testing.T) {
	sc, err := ibench.Generate(streamConfigs()[1])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	initial, batches := splitTarget(sc.J, 3, rng)
	p := NewProblem(sc.I.Clone(), initial, sc.Candidates)
	p.PrepareStreaming(0)
	n := p.NumCandidates()
	sel := make([]bool, n)
	for i := 0; i < n; i += 2 {
		sel[i] = true
	}
	ev := NewEvaluator(p, sel)
	apply := func(label string, delta *TargetDelta) {
		t.Helper()
		ev.ExtendTarget(delta)
		if g, w := ev.Total(), p.Objective(sel).Total(); math.Abs(g-w) > 1e-9 {
			t.Fatalf("%s: extended total %v, objective %v", label, g, w)
		}
	}
	d0, err := p.AppendTarget(batches[0])
	if err != nil {
		t.Fatal(err)
	}
	apply("append", d0)
	d1, err := p.RemoveTarget(batches[0][:1])
	if err != nil {
		t.Fatal(err)
	}
	apply("remove", d1)
	d2, err := p.ApplySourceDelta(SourceDelta{Remove: p.I.All()[:2]})
	if err != nil {
		t.Fatal(err)
	}
	apply("source", d2)
	// Re-applying an old delta is out of sequence: panic, not silence.
	if !mustPanic(func() { ev.ExtendTarget(d1) }) {
		t.Error("ExtendTarget accepted an out-of-sequence delta")
	}
}

// Candidate churn changes |C|: existing evaluators are permanently
// stale (panic on use, and Resync refuses), and a fresh evaluator
// works.
func TestCandidateChurnInvalidatesEvaluator(t *testing.T) {
	sc, err := ibench.Generate(streamConfigs()[0])
	if err != nil {
		t.Fatal(err)
	}
	nc := len(sc.Candidates)
	p := NewProblem(sc.I, sc.J.Clone(), sc.Candidates[:nc-1])
	p.PrepareStreaming(0)
	ev := NewEvaluator(p, make([]bool, p.NumCandidates()))
	if _, err := p.AddCandidates(sc.Candidates[nc-1:]); err != nil {
		t.Fatal(err)
	}
	if !mustPanic(func() { ev.Total() }) {
		t.Error("Total did not panic after AddCandidates")
	}
	if !mustPanic(func() { ev.Resync() }) {
		t.Error("Resync did not panic on a candidate-count mismatch")
	}
	fresh := NewEvaluator(p, make([]bool, p.NumCandidates()))
	if g, w := fresh.Total(), p.Objective(make([]bool, p.NumCandidates())).Total(); math.Abs(g-w) > 1e-9 {
		t.Fatalf("fresh evaluator total %v, objective %v", g, w)
	}
	if err := p.RemoveCandidates([]int{0}); err != nil {
		t.Fatal(err)
	}
	if !mustPanic(func() { fresh.Total() }) {
		t.Error("Total did not panic after RemoveCandidates")
	}
}

// Tombstoned slots must be excluded from shard decompositions and the
// exhaustive solver's bound bookkeeping; the sharded and exact
// objectives must agree with the live-aware Objective after removals.
func TestRemoveTargetSolversAgree(t *testing.T) {
	sc, err := ibench.Generate(streamConfigs()[0])
	if err != nil {
		t.Fatal(err)
	}
	p := NewProblem(sc.I, sc.J.Clone(), sc.Candidates)
	p.PrepareStreaming(0)
	if _, err := p.RemoveTarget(p.JIndex().Tuples[:4]); err != nil {
		t.Fatal(err)
	}
	cold := coldProblemOf(p)
	for _, name := range []string{"exhaustive", "greedy", "independent", "collective"} {
		solver, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := solver.Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("%s on removed problem: %v", name, err)
		}
		want, err := solver.Solve(context.Background(), cold)
		if err != nil {
			t.Fatalf("%s cold: %v", name, err)
		}
		if math.Abs(got.Objective.Total()-want.Objective.Total()) > 1e-6 {
			t.Errorf("%s: objective %v after removal, cold %v", name, got.Objective.Total(), want.Objective.Total())
		}
	}
}
