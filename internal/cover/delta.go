package cover

// Incremental ("delta") evidence maintenance for streaming targets.
//
// The Eq. (9) evidence of a candidate depends on (I, θ) through its
// chase — which never changes when the target J grows — and on J
// through two monotone-ish quantities: the per-block homomorphism
// contributions (new J tuples can only add candidate images) and the
// creates errors (a chase tuple that gains an image stops being an
// error). A Tracker retains exactly the state needed to exploit that:
// the chase blocks deduped by canonical key with their current cover
// contribution, and the chase tuples currently lacking an image. An
// Append then
//
//  1. finds the blocks "dirty" against the delta — those with a block
//     tuple whose constant pattern matches some appended tuple; every
//     other block keeps an identical candidate set, hence an identical
//     enumeration, and is never rescanned;
//  2. searches only the dirty blocks again, and only for the matches
//     that map a block tuple onto an appended tuple: a block's row is
//     a maximum over its matches, so merging those into the cached row
//     gives the row a cold analysis would compute — as long as neither
//     enumeration reaches HomLimit; a block that does is re-enumerated
//     in full, exactly as a cold analysis would;
//  3. rebuilds the Pairs of candidates owning a changed block by
//     max-merging the cached per-block contributions — no
//     homomorphism search for their clean blocks; and
//  4. probes each candidate's current error tuples against the delta
//     only, clearing the ones that gained an image.
//
// The result is value-identical to a cold AnalyzeN over the extended
// target: appended tuples take the next index ids (arrival order), so
// the evidence equals the cold analysis of a J listing its tuples in
// that same order — covers/creates values per concrete tuple are
// identical either way. (The one caveat is a HomLimit low enough to
// truncate a block's enumeration: a truncated max depends on the
// enumeration order, which depends on tuple arrival order, exactly as
// it does for two cold analyses of differently-ordered instances.)

import (
	"slices"

	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// trackedBlock is one distinct chase block (up to null renaming) with
// its current cover contribution against the tracked target.
type trackedBlock struct {
	// key is the block's canonical key (data.BlockKeyBuf).
	key string
	// tuples is a representative block, kept by trackers only
	// (coverage is invariant under the null renaming that canonical
	// keys quotient out). It never changes, so retain and release list
	// and unlist the block under the same slots of the tracker's index.
	tuples []data.Tuple
	// pairs is the block's current contribution: max coverage degree
	// per J tuple over its partial homomorphisms, sparse and sorted.
	pairs []CoverPair
	// homs is the number of partial homomorphisms the enumeration
	// behind pairs emitted; below the hom limit it was complete.
	homs int
	// changed marks, during one rescan, a block whose contribution
	// the re-enumeration changed (see rowChange); dirty marks, while
	// one target change is applied, a block dirtyBlocks collected.
	changed rowChange
	dirty   bool
	// refs counts the block's occurrences across the tracker's candidate
	// block lists (see Tracker.retain and Tracker.release).
	refs int
}

// rowChange is how one rescan changed a block's contribution.
type rowChange uint8

const (
	rowKept rowChange = iota
	// rowGrown: an append that kept the enumeration under the hom limit
	// max-merged new matches into the row, so it only grew.
	rowGrown
	// rowReplaced: the row was enumerated afresh (a removal, or a block
	// at the hom limit) and may have lost entries.
	rowReplaced
)

// chaseTuple is one distinct chase tuple of a candidate, with the
// retained block of the chase block it was first seen in. The block
// holds the tuple, so the tuple can only map onto a changed target
// tuple when the block is dirty against the change.
type chaseTuple struct {
	data.Tuple
	blk *trackedBlock
}

// Tracker is the retained streaming state of one analysed candidate
// set: everything needed to apply target appends to a []Analysis
// without re-running the chase or rescanning clean evidence. Build it
// with BuildTracker. It is not safe for concurrent use (core.Problem
// serialises its mutations): its build and every mutation run serially
// on the tracker's own worker, on the calling goroutine.
type Tracker struct {
	jidx *JIndex
	opts Options
	// memo holds every distinct chase block some candidate references,
	// by canonical key. The tracker's worker dedups through it, so the
	// chasing mutations (source deltas, candidate additions) reuse every
	// retained block.
	memo map[string]*trackedBlock
	// candBlocks lists each candidate's blocks, in block order.
	candBlocks [][]*trackedBlock
	// errTuples lists each candidate's chase tuples currently lacking
	// a homomorphic image in J (its creates errors).
	errTuples [][]chaseTuple
	// okTuples lists each candidate's chase tuples that currently DO
	// embed into J — the complement of errTuples. Removals consult it:
	// a tuple whose image vanishes migrates back to errTuples.
	okTuples [][]chaseTuple
	// byRel indexes the memo's blocks by relation and slot: a block is
	// listed once under each distinct slot of its tuples (see slotOf)
	// from its first reference to its last, and a slot's entry goes with
	// its last block. dirtyBlocks reads it, never visiting a clean block.
	byRel map[string]map[slot][]*trackedBlock
	// w is the worker the build and every mutation run on, kept across
	// mutations and grown with the target (analyzeWorker.fit).
	w *analyzeWorker
}

// slot is where the index lists the blocks holding a tuple: under the
// position and text of the tuple's first constant, or under pos -1
// when the tuple has no constant.
type slot struct {
	pos  int
	text string
}

// TrackerDelta reports what one Append changed, so downstream
// incremental state (incidence rows, the retained grounding) can update
// in O(changed) instead of rescanning.
type TrackerDelta struct {
	// OldTuples and NewTuples are the target sizes around the append;
	// ids OldTuples..NewTuples-1 are the appended tuples.
	OldTuples, NewTuples int
	// ChangedTuples lists pre-existing J tuple ids whose coverage by
	// some candidate changed (sorted ascending). Appended ids are not
	// listed — the id range above already identifies them.
	ChangedTuples []int32
	// PairsChanged lists candidates whose Pairs slice changed.
	PairsChanged []int32
	// ErrorsChanged lists candidates whose Errors count changed
	// (dropped on appends; it can also grow on removals and move either
	// way on source deltas).
	ErrorsChanged []int32
	// RemovedTuples lists J tuple ids tombstoned by a Remove, sorted
	// ascending. Their slots stay allocated but dead: coverage rows are
	// empty and IndexOf misses. Appends and source deltas never set it.
	RemovedTuples []int32
}

// extend gives n more candidates empty lists.
func (t *Tracker) extend(n int) {
	t.candBlocks = append(t.candBlocks, make([][]*trackedBlock, n)...)
	t.errTuples = append(t.errTuples, make([][]chaseTuple, n)...)
	t.okTuples = append(t.okTuples, make([][]chaseTuple, n)...)
}

// BuildTracker runs the full evidence analysis (analyzeOne, as
// AnalyzeN) while retaining the streaming state, returning both. Use
// it instead of AnalyzeN when the target will grow; the analyses are
// value-identical to AnalyzeN's, though each candidate row is merged
// from the memo-shared block rows instead of folded match by match.
// Like every tracker mutation, the build runs serially on the
// tracker's own worker, on the calling goroutine, deduplicating
// straight into its memo.
func BuildTracker(I *data.Instance, jidx *JIndex, candidates tgd.Mapping, opts Options) (*Tracker, []Analysis) {
	t := &Tracker{
		jidx:  jidx,
		opts:  opts,
		memo:  make(map[string]*trackedBlock, jidx.Len()), // about one block per target tuple
		byRel: make(map[string]map[slot][]*trackedBlock),
		w:     newAnalyzeWorker(jidx),
	}
	t.extend(len(candidates))
	analyses := make([]Analysis, len(candidates))
	for i, d := range candidates {
		analyses[i] = t.w.analyzeOne(i, d, I, opts, t)
		t.retain(t.candBlocks[i])
	}
	return t, analyses
}

// Append applies a target delta: it extends the tracker's JIndex with
// the new tuples (which must already be deduped against the indexed
// target), updates the analyses in place, and reports what changed.
// analyses must be the slice BuildTracker returned (same order).
func (t *Tracker) Append(delta []data.Tuple, analyses []Analysis) *TrackerDelta {
	oldLen := t.jidx.Len()
	out := &TrackerDelta{OldTuples: oldLen, NewTuples: oldLen + len(delta)}
	if len(delta) == 0 {
		return out
	}
	t.jidx.Append(delta)

	// 1–3. Re-enumerate the blocks with a tuple that can map onto an
	// appended tuple and re-merge the candidates owning a changed one.
	dirty := t.dirtyBlocks(delta)
	defer unmark(dirty)
	out.ChangedTuples = t.rescan(dirty, analyses, int32(oldLen), true, out)

	// 4. Errors: a chase tuple still erroring stops iff it maps onto an
	// appended tuple, which a probe of the appended ids alone answers —
	// and only a tuple of a dirty block can. It joins the embedded set
	// (removals may send it back).
	t.migrate(t.errTuples, t.okTuples, int32(oldLen), true, analyses, out)
	return out
}

// migrate is step 4 of a target append or removal: for every candidate
// it moves the chase tuples of dirty blocks whose embedding into the
// index — probing the ids from base on — is embeds from the lists
// `from` to the lists `to` (errTuples and okTuples, one way or the
// other), and refreshes the Errors of the candidates it moved tuples
// of, listing them in out.ErrorsChanged.
func (t *Tracker) migrate(from, to [][]chaseTuple, base int32, embeds bool, analyses []Analysis, out *TrackerDelta) {
	idx := t.jidx.idx
	for i, cts := range from {
		kept := cts[:0]
		for _, ct := range cts {
			if ct.blk.dirty && idx.Embeds(ct.Tuple, base) == embeds {
				to[i] = append(to[i], ct)
				continue
			}
			kept = append(kept, ct)
		}
		if len(kept) != len(cts) {
			from[i] = kept
			analyses[i].Errors = float64(len(t.errTuples[i]))
			out.ErrorsChanged = append(out.ErrorsChanged, int32(i))
		}
	}
}

// rescan is steps 1–3 of a target append or removal. It re-enumerates,
// on the current index, the dirty blocks (see dirtyBlocks) — every
// other block keeps an identical candidate set, hence an identical
// enumeration. After an append (appended set, the ids from
// limit on being the new tuples) a block enumerates only the matches
// that reach an appended tuple, merged into its cached row. It then
// rebuilds the Pairs of every candidate owning a block whose
// contribution changed (a memory pass, no search), records those
// candidates in out.PairsChanged and returns the sorted J ids below
// limit whose coverage changed, less out.RemovedTuples. A candidate
// whose changed rows all only grew (rowGrown) max-merges them into its
// current Pairs; any other re-merges all its blocks' cached rows.
func (t *Tracker) rescan(dirty []*trackedBlock, analyses []Analysis, limit int32, appended bool, out *TrackerDelta) []int32 {
	w := t.w
	w.fit(t.jidx.Len())
	homLim := homLimit(t.opts)
	anyChanged := false
	for _, tb := range dirty {
		var pairs []CoverPair
		grown := false
		if appended {
			// Under the limit before and after, appendedBlockPairs only
			// merged the new matches into the cached row.
			before := tb.homs
			pairs, tb.homs = w.appendedBlockPairs(tb, limit, t.opts)
			grown = before < homLim && tb.homs < homLim
		} else {
			pairs, tb.homs = w.enumerateBlockPairs(tb.tuples, t.opts)
		}
		if !slices.Equal(pairs, tb.pairs) {
			tb.pairs = pairs
			tb.changed = rowReplaced
			if grown {
				tb.changed = rowGrown
			}
			anyChanged = true
		}
	}
	if !anyChanged {
		return nil
	}
	touched := make(map[int32]bool)
	acc := &w.acc
	for i, blocks := range t.candBlocks {
		change := rowKept
		for _, tb := range blocks {
			change = max(change, tb.changed)
		}
		var onto []CoverPair
		switch change {
		case rowKept:
			continue
		case rowGrown:
			for _, tb := range blocks {
				if tb.changed == rowGrown {
					acc.addPairs(tb.pairs)
				}
			}
			onto = analyses[i].Pairs
		default:
			for _, tb := range blocks {
				acc.addPairs(tb.pairs)
			}
		}
		newPairs := acc.drain(onto)
		diffPairs(analyses[i].Pairs, newPairs, limit, touched)
		analyses[i].Pairs = newPairs
		out.PairsChanged = append(out.PairsChanged, int32(i))
	}
	for _, tb := range dirty {
		tb.changed = rowKept
	}
	return changedIDs(touched, out.RemovedTuples)
}

// dirtyBlocks returns the blocks with a tuple whose constant positions
// match one of the changed tuples, in no particular order: each is
// rescanned into its own state. Such a tuple is listed under the
// changed tuple's own constant at the position of its first constant,
// or, constant-free, under its relation's slot without one, which is
// walked once per relation. It leaves the blocks marked dirty; the
// caller unmarks them when its change is applied.
func (t *Tracker) dirtyBlocks(changed []data.Tuple) []*trackedBlock {
	changedByRel := make(map[string][]data.Tuple)
	for _, ct := range changed {
		changedByRel[ct.Rel] = append(changedByRel[ct.Rel], ct)
	}
	var dirty []*trackedBlock
	mark := func(tb *trackedBlock, ct data.Tuple) {
		if !tb.dirty && slices.ContainsFunc(tb.tuples, func(bt data.Tuple) bool { return data.MatchConstPositions(bt, ct) }) {
			tb.dirty = true
			dirty = append(dirty, tb)
		}
	}
	//lint:commutative each changed tuple marks its blocks independently, and nothing reads the order of dirty
	for rel, changed := range changedByRel {
		slots := t.byRel[rel]
		for _, tb := range slots[slot{pos: -1}] {
			for k := 0; k < len(changed) && !tb.dirty; k++ {
				mark(tb, changed[k])
			}
		}
		for _, ct := range changed {
			for p, a := range ct.Args {
				if !a.IsNull() { // no block constant maps onto a null
					for _, tb := range slots[slot{p, a.Name()}] {
						mark(tb, ct)
					}
				}
			}
		}
	}
	return dirty
}

// unmark clears the dirty marks dirtyBlocks set.
func unmark(dirty []*trackedBlock) {
	for _, tb := range dirty {
		tb.dirty = false
	}
}

// retain counts the references of a candidate block list being
// installed. Every block enters the tracker here: its first reference
// lists it in byRel.
func (t *Tracker) retain(blocks []*trackedBlock) {
	for _, tb := range blocks {
		if tb.refs++; tb.refs == 1 {
			t.index(tb, true)
		}
	}
}

// release drops the references of a candidate block list being
// replaced or retired. Every block leaves the tracker here: its last
// reference deletes it from the memo and unlists it from byRel.
func (t *Tracker) release(blocks []*trackedBlock) {
	for _, tb := range blocks {
		if tb.refs--; tb.refs == 0 {
			delete(t.memo, tb.key)
			t.index(tb, false)
		}
	}
}

// index lists tb under each slot of its tuples (list) or unlists it
// (!list). A slot's list is a set: a block is listed once however
// many of its tuples share the slot, an unlisted block's place is
// filled by the last entry, and an emptied list is deleted.
func (t *Tracker) index(tb *trackedBlock, list bool) {
	for _, bt := range tb.tuples {
		slots := t.byRel[bt.Rel]
		if slots == nil {
			slots = make(map[slot][]*trackedBlock)
			t.byRel[bt.Rel] = slots
		}
		s := slotOf(bt)
		l := slots[s]
		switch k := slices.Index(l, tb); {
		case list && k < 0:
			slots[s] = append(l, tb)
		case !list && k >= 0:
			last := len(l) - 1
			l[k], l[last] = l[last], nil
			if slots[s] = l[:last]; last == 0 {
				delete(slots, s)
			}
		}
	}
}

// slotOf returns the slot the index lists bt's block under.
func slotOf(bt data.Tuple) slot {
	p := slices.IndexFunc(bt.Args, func(a data.Value) bool { return !a.IsNull() })
	if p < 0 {
		return slot{pos: -1}
	}
	return slot{p, bt.Args[p].Name()}
}

// changedIDs lists the ids in touched that are not in skip (sorted
// ascending), in ascending order: a delta's ChangedTuples.
func changedIDs(touched map[int32]bool, skip []int32) []int32 {
	ids := make([]int32, 0, len(touched))
	//lint:commutative filtered collect-then-sort: ids is sorted immediately below
	for j := range touched {
		if _, found := slices.BinarySearch(skip, j); !found {
			ids = append(ids, j)
		}
	}
	slices.Sort(ids)
	return ids
}

// diffPairs records into touched the J ids below limit whose coverage
// differs between the sorted sparse rows prev and cur.
func diffPairs(prev, cur []CoverPair, limit int32, touched map[int32]bool) {
	i, j := 0, 0
	for i < len(prev) || j < len(cur) {
		switch {
		case j >= len(cur) || (i < len(prev) && prev[i].J < cur[j].J):
			if prev[i].J < limit {
				touched[prev[i].J] = true
			}
			i++
		case i >= len(prev) || cur[j].J < prev[i].J:
			if cur[j].J < limit {
				touched[cur[j].J] = true
			}
			j++
		default: // same id
			if prev[i].Cov != cur[j].Cov && prev[i].J < limit {
				touched[prev[i].J] = true
			}
			i++
			j++
		}
	}
}
