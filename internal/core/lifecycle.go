package core

// Lifecycle mutations beyond AppendTarget: target removals, source
// deltas, and candidate addition/retirement. Together with appends
// they make the full streaming contract (docs/LIFECYCLE.md): every
// mutation keeps the prepared evidence value-identical to a cold
// Prepare of the mutated problem, updates the version counters
// coherently, and bumps the mutation sequence when the evidence
// changed, which makes earlier Evaluators stale. Each updates the
// analyses through the tracker and hands the delta to absorb, the one
// place the incidence, grounding and versions are refreshed. A
// sub-problem view is read-only: each mutation on it returns an error
// and changes nothing.

import (
	"fmt"

	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// RemoveTarget retracts target tuples. Each tuple must currently be in
// J — an unknown tuple returns a descriptive error and leaves the
// problem untouched. Duplicates within one batch are removed once.
//
// The removal tombstones the tuples' index slots (live ids stay
// stable; JIndex().Len() does not shrink, NumLive does), re-enumerates
// only the chase blocks whose pattern touches a removed tuple, and
// rebuilds the incidence when any coverage row changed. Errors can
// grow: chase tuples whose only homomorphic image was removed become
// creates-errors again. Like AppendTarget it must not run concurrently
// with Solve/Objective on the same Problem; Evaluators created before
// the removal panic on use — build a new one.
func (p *Problem) RemoveTarget(tuples []data.Tuple) (*TargetDelta, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.beginMutation(); err != nil {
		return nil, err
	}
	seen := make(map[int32]bool, len(tuples))
	var removed []data.Tuple
	var ids []int32
	for _, t := range tuples {
		j := p.jidx.IndexOf(t)
		if j < 0 {
			return nil, fmt.Errorf("core: RemoveTarget: tuple %s is not in the target", t)
		}
		if seen[int32(j)] {
			continue
		}
		seen[int32(j)] = true
		removed = append(removed, t)
		ids = append(ids, int32(j))
	}
	if len(ids) == 0 {
		return &TargetDelta{OldTuples: p.jidx.Len(), NewTuples: p.jidx.Len()}, nil
	}
	for _, t := range removed {
		p.J.Remove(t)
	}
	delta := p.tracker.Remove(removed, ids, p.analyses)
	p.absorb(delta)
	p.mutSeq.Add(1)
	return delta, nil
}

// SourceDelta describes a batch mutation of the source instance I.
type SourceDelta struct {
	// Add lists tuples to insert (existing duplicates are ignored).
	Add []data.Tuple
	// Remove lists tuples to delete (missing tuples are ignored).
	Remove []data.Tuple
}

// ApplySourceDelta mutates the source instance and re-derives the
// evidence of exactly the candidates whose tgd body reads a changed
// relation — a source delta dirties their chase blocks, not just the
// cover evidence, so those candidates are re-chased (unchanged blocks
// are still reused via the retained block memo). I's version counter
// is bumped and re-recorded, keeping CheckFresh green.
//
// The retained collective grounding is patched as for a target
// delta: changed tuple hinges are rebuilt in place and changed priors
// reweighted, and it is dropped only for a transition the slot surgery
// cannot express (see grounding.applyDelta). The returned delta lists
// the changed tuples and error counts.
func (p *Problem) ApplySourceDelta(d SourceDelta) (*TargetDelta, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.beginMutation(); err != nil {
		return nil, err
	}
	changed := make(map[string]bool)
	for _, t := range d.Add {
		if p.I.Add(t) {
			changed[t.Rel] = true
		}
	}
	for _, t := range d.Remove {
		if p.I.Remove(t) {
			changed[t.Rel] = true
		}
	}
	delta := &TargetDelta{OldTuples: p.jidx.Len(), NewTuples: p.jidx.Len()}
	if len(changed) > 0 {
		delta = p.tracker.ApplySourceDelta(p.I, changed, p.Candidates, p.analyses)
	}
	p.absorb(delta)
	if len(delta.PairsChanged) > 0 || len(delta.ChangedTuples) > 0 || len(delta.ErrorsChanged) > 0 {
		p.mutSeq.Add(1)
	}
	return delta, nil
}

// AddCandidates appends candidates to the problem (new correspondences
// arriving in a session), analysing them against the current target
// and extending the evidence in place. The candidate slice is copied
// to a fresh backing array, so forks sharing the old one are
// unaffected. Candidates are not deduplicated against the existing
// set; callers wanting set semantics filter first.
//
// Candidate churn changes |C|, which no TargetDelta can express:
// existing Evaluators become permanently stale (their next use
// panics) and warm selections shorter than the new |C| are tolerated
// by the solvers' warm paths. The retained grounding and any shard
// split are dropped.
func (p *Problem) AddCandidates(cands tgd.Mapping) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.beginMutation(); err != nil {
		return 0, err
	}
	if len(cands) == 0 {
		return 0, nil
	}
	newAn := p.tracker.AddCandidates(p.I, cands)
	p.Candidates = append(append(tgd.Mapping{}, p.Candidates...), cands...)
	p.analyses = append(p.analyses, newAn...)
	p.absorb(nil)
	p.mutSeq.Add(1)
	return len(cands), nil
}

// RemoveCandidates retires candidates by their current indices,
// compacting the candidate set, analyses (TGDIndex renumbered) and
// retained streaming state. An out-of-range index returns an error
// and leaves the problem untouched; duplicate indices are retired
// once. The same staleness rules as AddCandidates apply.
//
//lint:testonly lifecycle tests drive it; no trace step or HTTP op retires candidates until ROADMAP item 10(a) adds one
func (p *Problem) RemoveCandidates(indices []int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.beginMutation(); err != nil {
		return err
	}
	keep := make([]bool, len(p.Candidates))
	for i := range keep {
		keep[i] = true
	}
	n := 0
	for _, i := range indices {
		if i < 0 || i >= len(keep) {
			return fmt.Errorf("core: RemoveCandidates: index %d out of range (have %d candidates)", i, len(keep))
		}
		if keep[i] {
			keep[i] = false
			n++
		}
	}
	if n == 0 {
		return nil
	}
	p.tracker.RemoveCandidates(keep)
	kept := make(tgd.Mapping, 0, len(keep)-n)
	w := 0
	for i, k := range keep {
		if !k {
			continue
		}
		kept = append(kept, p.Candidates[i])
		p.analyses[w] = p.analyses[i]
		p.analyses[w].TGDIndex = w
		w++
	}
	p.Candidates = kept
	p.analyses = p.analyses[:w]
	p.absorb(nil)
	p.mutSeq.Add(1)
	return nil
}

// NumLiveTuples returns the number of live target tuples (slots minus
// tombstones) — the target size wire responses report.
func (p *Problem) NumLiveTuples() int {
	p.Prepare()
	return p.jidx.NumLive()
}
