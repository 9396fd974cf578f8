package cover

// Lifecycle mutations beyond Append: target removals, source-instance
// deltas, and candidate addition/retirement. They share Append's
// retained state (delta.go) and its dirty-block discipline:
//
//   - Remove tombstones target slots. Any block contributing coverage
//     on a removed tuple necessarily has a block tuple whose constant
//     pattern matches it, so pattern-dirty detection against the
//     removed tuples finds every block whose enumeration can change;
//     clean blocks keep pairs that reference live ids only. Errors can
//     only grow: the embedded chase tuples (okTuples) of dirty blocks
//     are re-probed against the tombstoned index and migrate back to
//     errTuples when their image vanished.
//   - ApplySourceDelta re-chases exactly the candidates whose tgd body
//     reads a changed relation — a source delta invalidates chase
//     blocks, not just cover evidence — through the tracker's block
//     memo, which still holds every retained block, so shared
//     unchanged blocks are never re-enumerated.
//   - AddCandidates analyses the new candidates against the current
//     target (through the memo likewise); RemoveCandidates compacts
//     the retained per-candidate state.
//
// Candidate block lists enter and leave through Tracker.retain and
// Tracker.release, so no mutation visits the blocks of candidates it
// does not change.
//
// All of them run serially on the tracker's worker, on the calling
// goroutine, and keep the Tracker's core invariant: the analyses slice
// is value-identical to a cold analysis of the current live target.

import (
	"slices"

	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// Remove applies a target removal: removed lists the tuples being
// retracted and ids their (live, deduped) slot ids — core.Problem
// resolves them. The tracker tombstones the slots, re-enumerates only
// the blocks whose pattern touches a removed tuple, updates analyses
// in place, and reports the delta (RemovedTuples set, slot count
// unchanged).
func (t *Tracker) Remove(removed []data.Tuple, ids []int32, analyses []Analysis) *TrackerDelta {
	n := t.jidx.Len()
	out := &TrackerDelta{OldTuples: n, NewTuples: n}
	if len(ids) == 0 {
		return out
	}
	t.jidx.Remove(ids)
	out.RemovedTuples = slices.Clone(ids)
	slices.Sort(out.RemovedTuples)

	// 1–3. Append's rescan, with the removed tuples in place of the
	// appended ones (the candidate probe filters dead ids, so the
	// re-enumeration is the one a cold analysis of the shrunken target
	// would run). Removed ids are excluded from ChangedTuples —
	// RemovedTuples already reports them.
	dirty := t.dirtyBlocks(removed)
	defer unmark(dirty)
	out.ChangedTuples = t.rescan(dirty, analyses, int32(n), false, out)

	// 4. Errors grow: an embedded chase tuple loses its image iff the
	// tombstoned index no longer embeds it, and migrates back to the
	// error set. Only a tuple of a dirty block can have mapped onto a
	// removed tuple, so only those are probed.
	t.migrate(t.okTuples, t.errTuples, 0, false, analyses, out)
	return out
}

// ApplySourceDelta re-analyses the candidates whose tgd body reads one
// of the changed relations against the (already mutated) source
// instance I, updating analyses in place. Unlike target deltas this
// re-runs the chase for the affected candidates — their blocks and
// error sets are invalid, not just their cover pairs — but through the
// block memo, which holds every retained block, so enumerations shared
// with clean candidates (or unchanged across the delta) are reused.
func (t *Tracker) ApplySourceDelta(I *data.Instance, changedRels map[string]bool, candidates tgd.Mapping, analyses []Analysis) *TrackerDelta {
	n := t.jidx.Len()
	out := &TrackerDelta{OldTuples: n, NewTuples: n}
	var affected []int
	for i, d := range candidates {
		for _, a := range d.Body {
			if changedRels[a.Rel] {
				affected = append(affected, i)
				break
			}
		}
	}
	if len(affected) == 0 {
		return out
	}
	t.w.fit(n)
	touched := make(map[int32]bool)
	replaced := make([][]*trackedBlock, 0, len(affected))
	for _, i := range affected {
		replaced = append(replaced, t.candBlocks[i])
		t.candBlocks[i], t.errTuples[i], t.okTuples[i] = nil, nil, nil
		na := t.w.analyzeOne(i, candidates[i], I, t.opts, t)
		t.retain(t.candBlocks[i])
		diffPairs(analyses[i].Pairs, na.Pairs, int32(n), touched)
		if !slices.Equal(analyses[i].Pairs, na.Pairs) {
			out.PairsChanged = append(out.PairsChanged, int32(i))
		}
		if na.Errors != analyses[i].Errors {
			out.ErrorsChanged = append(out.ErrorsChanged, int32(i))
		}
		analyses[i] = na
	}
	// The replaced lists are released only once every new list holds
	// its references: a block both hold stays in the memo throughout,
	// and later candidates' chases still find the blocks a delta drops.
	for _, blocks := range replaced {
		t.release(blocks)
	}
	out.ChangedTuples = changedIDs(touched, nil)
	return out
}

// AddCandidates analyses the added candidates against the current
// target, extending the retained state; the returned analyses continue
// the existing candidate indices (TGDIndex = previous count + k).
func (t *Tracker) AddCandidates(I *data.Instance, added tgd.Mapping) []Analysis {
	base := len(t.candBlocks)
	t.w.fit(t.jidx.Len())
	t.extend(len(added))
	newAn := make([]Analysis, len(added))
	for k, d := range added {
		newAn[k] = t.w.analyzeOne(base+k, d, I, t.opts, t)
		t.retain(t.candBlocks[base+k])
	}
	return newAn
}

// RemoveCandidates compacts the retained per-candidate state down to
// the candidates with keep[i] true (the caller compacts its own
// candidate and analysis slices in the same order), releasing the
// retired candidates' blocks.
func (t *Tracker) RemoveCandidates(keep []bool) {
	w := 0
	for i, k := range keep {
		if !k {
			t.release(t.candBlocks[i])
			continue
		}
		t.candBlocks[w] = t.candBlocks[i]
		t.errTuples[w] = t.errTuples[i]
		t.okTuples[w] = t.okTuples[i]
		w++
	}
	t.candBlocks = t.candBlocks[:w]
	t.errTuples = t.errTuples[:w]
	t.okTuples = t.okTuples[:w]
}
