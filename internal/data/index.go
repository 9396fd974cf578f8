package data

import (
	"math"
	"slices"
)

// This file implements the indexed homomorphism search, the only one
// production code runs. The scan-based reference in hom.go probes
// candidate images by walking every target tuple of a relation; at
// scenario scale that rescan of J per block tuple dominates
// Problem.Prepare. The Index replaces it with posting lists (relation
// → argument position → value → tuple ids) in CSR form: IndexTuples
// numbers every list into a slot in one pass over the tuples, then
// cuts all lists from one backing array and fills them in a second.
// Values are looked up by their text alone, in one string-keyed map
// per position for constants and one for nulls, so no lookup hashes
// or compares a Value struct. A Searcher probes the lists directly — a
// block tuple's candidates come from one posting list among its
// constants (see probe), narrowed during the search by the posting
// list of an already-bound null — and reuses all search scratch, so a
// warm enumeration allocates nothing; after a search, TupleEmbeds
// answers the creates check of a block tuple from its candidate set
// without probing again. Nothing is memoised per tuple pattern: on the
// sharded-throughput scenario a pattern memo hit 60% of its lookups,
// yet building and hashing its string keys cost more than the probes
// the hits saved.
//
// The enumeration order is identical to the reference path: block
// tuples are processed constant-rich first (same stable sort), and
// candidate images are tried in target insertion order (posting lists
// are filled in global id order, which is Instance.All() order). The
// differential tests and the fuzz target in index_test.go, and the
// analysis differentials in internal/cover, pin the two paths against
// each other, hom limits included.
//
// One opt-in departure from that sequence: with CollapseInert set, the
// run of images of an inert leaf — the last processed tuple, when it
// has no constant and no bound null — is counted rather than visited
// and reported as one match with the tuple unmapped. The count, the
// hom-limit cut-off and every maximum over matches of a score that
// gives such a tuple 0 are those of the full enumeration; the same
// tests pin that, at limits 1–8 and the default.

// Index is a probe structure over one instance. Tuple ids are
// positions in the Instance.All() order at build time; the index does
// not observe later mutations of the instance, but Append extends it
// with new tuples (ids continue past the existing ones), which is the
// streaming ingestion path of cover.Tracker.
type Index struct {
	tuples []Tuple
	rels   map[string]*relPostings
	// The posting lists by slot, in CSR form: list s is
	// ids[start[s]:start[s+1]], in ascending id order.
	start []int32
	ids   []int32
	// grown holds, by slot, the lists Append extended: a list's first
	// append copies it out of ids, so no list ever writes into its
	// neighbour's range. nil until the first Append.
	grown [][]int32
	// Tombstones: Remove marks ids dead instead of compacting, so
	// every live id stays stable and posting lists need no surgery.
	// dead stays nil until the first Remove, keeping the append-only
	// fast path allocation- and branch-predictable; removed counts the
	// dead ids.
	dead    []bool
	removed int
}

// relPostings is the second index level of one relation: the slot of
// the list of all its tuple ids, and per argument position the slot of
// each value's list.
type relPostings struct {
	all int32
	// consts[p] maps the text of each constant at position p to the slot
	// of its list, and nulls[p] the label of each labelled null (nil
	// until the position holds one). Keyed by the string alone, a lookup
	// takes Go's string-keyed map fast path instead of hashing and
	// comparing a Value struct.
	consts, nulls []map[string]int32
	// arity is the arity every tuple of the relation has, or -1 when
	// they differ.
	arity int
	// size is the relation's tuple count when the index was built; its
	// value maps are allocated for that many values, so they never
	// grow during the build.
	size int
}

// IndexTuples builds the posting-list index of a tuple list: a
// tuple's id is its position in the list. The index takes ownership
// of the slice (Tuples returns it) — the caller must not modify it.
func IndexTuples(tuples []Tuple) *Index {
	ix := &Index{tuples: tuples, rels: make(map[string]*relPostings), start: []int32{0}}
	n := len(tuples)
	var rel string
	var rp *relPostings
	for _, t := range tuples {
		n += len(t.Args)
		if rp == nil || t.Rel != rel {
			rel, rp = t.Rel, ix.relOf(t)
		}
		rp.size++
	}
	// Pass 1: the slots of every tuple, in id order, counted into
	// start[s+1].
	slots := ix.slots(tuples, make([]int32, 0, n))
	for _, s := range slots {
		ix.start[s+1]++
	}
	for s := 1; s < len(ix.start); s++ {
		ix.start[s] += ix.start[s-1]
	}
	// Pass 2: fill the lists in id order, start[s] serving as list s's
	// cursor; it ends on the start of list s+1, so shift start back.
	ix.ids = make([]int32, len(slots))
	k := 0
	for id, t := range tuples {
		for end := k + 1 + len(t.Args); k < end; k++ {
			s := slots[k]
			ix.ids[ix.start[s]] = int32(id)
			ix.start[s]++
		}
	}
	copy(ix.start[1:], ix.start)
	ix.start[0] = 0
	return ix
}

// Append extends the index with new tuples, assigning them the next
// ids. Posting lists stay in ascending id order (appended ids are
// larger than every existing id), so enumeration order over tuples
// already indexed is unchanged — the property the incremental cover
// path relies on to skip blocks untouched by a delta. The caller is
// responsible for not appending duplicates of indexed tuples.
func (ix *Index) Append(tuples []Tuple) {
	base := len(ix.tuples)
	ix.tuples = append(ix.tuples, tuples...)
	if ix.dead != nil {
		ix.dead = append(ix.dead, make([]bool, len(tuples))...)
	}
	if ix.grown == nil {
		ix.grown = make([][]int32, len(ix.start)-1)
	}
	slots := ix.slots(tuples, nil)
	k := 0
	for i, t := range tuples {
		for end := k + 1 + len(t.Args); k < end; k++ {
			s := slots[k]
			l := ix.grown[s]
			if l == nil && int(s) < len(ix.start)-1 {
				l = ix.csr(s)
			}
			ix.grown[s] = append(l, int32(base+i))
		}
	}
}

// relOf returns the postings of t's relation, adding them on first
// sight.
func (ix *Index) relOf(t Tuple) *relPostings {
	rp := ix.rels[t.Rel]
	if rp == nil {
		rp = &relPostings{all: ix.newList(), arity: len(t.Args)}
		ix.rels[t.Rel] = rp
	}
	return rp
}

// slots appends to dst, for each tuple of ts, the slots of the lists
// it belongs in: its relation's list, then one list per argument
// position. A relation or value seen first gets a new, empty list.
func (ix *Index) slots(ts []Tuple, dst []int32) []int32 {
	var rel string
	var rp *relPostings
	for _, t := range ts {
		// Tuples usually arrive grouped by relation, so the first
		// level is looked up once per run of equal relations.
		if rp == nil || t.Rel != rel {
			rel, rp = t.Rel, ix.relOf(t)
		}
		if rp.arity != len(t.Args) {
			rp.arity = -1
		}
		dst = append(dst, rp.all)
		for len(rp.consts) < len(t.Args) {
			rp.consts = append(rp.consts, make(map[string]int32, rp.size))
			rp.nulls = append(rp.nulls, nil)
		}
		for p, a := range t.Args {
			s, ok := rp.slot(p, a)
			if !ok {
				s = ix.newList()
				m := rp.consts[p]
				if a.null {
					if rp.nulls[p] == nil {
						rp.nulls[p] = make(map[string]int32)
					}
					m = rp.nulls[p]
				}
				m[a.name] = s
			}
			dst = append(dst, s)
		}
	}
	return dst
}

// newList numbers a new, empty posting list: a CSR slot while the
// index is built, a grown one after the first Append.
func (ix *Index) newList() int32 {
	if ix.grown != nil {
		ix.grown = append(ix.grown, nil)
		return int32(len(ix.grown) - 1)
	}
	ix.start = append(ix.start, 0)
	return int32(len(ix.start) - 2)
}

// list returns posting list s.
func (ix *Index) list(s int32) []int32 {
	if ix.grown != nil && ix.grown[s] != nil {
		return ix.grown[s]
	}
	return ix.csr(s)
}

// csr returns list s as laid out by IndexTuples, capped at its end.
func (ix *Index) csr(s int32) []int32 {
	return ix.ids[ix.start[s]:ix.start[s+1]:ix.start[s+1]]
}

// Remove tombstones the given ids: they stop appearing in Candidates
// probes, but keep their slot (Len is unchanged, live ids are stable
// and posting lists are filtered rather than rewritten). Removing an
// already-dead or out-of-range id panics — resolution against the
// current live set is the caller's job.
func (ix *Index) Remove(ids []int32) {
	if len(ids) == 0 {
		return
	}
	if ix.dead == nil {
		ix.dead = make([]bool, len(ix.tuples))
	}
	for _, id := range ids {
		if id < 0 || int(id) >= len(ix.tuples) {
			panic("data: Index.Remove: id out of range")
		}
		if ix.dead[id] {
			panic("data: Index.Remove: id already removed")
		}
		ix.dead[id] = true
	}
	ix.removed += len(ids)
}

// IndexOf returns the id of the live indexed tuple equal to t, or -1.
// It scans one of t's constant posting lists (see probe) and allocates
// nothing.
func (ix *Index) IndexOf(t Tuple) int {
	for _, id := range ix.probe(ix.rels[t.Rel], t) {
		if ix.live(id) && ix.tuples[id].Equal(t) {
			return int(id)
		}
	}
	return -1
}

// Live reports whether id is indexed and not tombstoned.
func (ix *Index) Live(id int) bool {
	return id >= 0 && id < len(ix.tuples) && (ix.dead == nil || !ix.dead[id])
}

// NumLive returns the number of indexed tuples not tombstoned.
func (ix *Index) NumLive() int { return len(ix.tuples) - ix.removed }

// Tuples returns all indexed tuples; the slice position of a tuple is
// its id (shared slice; do not mutate).
func (ix *Index) Tuples() []Tuple { return ix.tuples }

// Candidates returns the ids of tuples that t can map onto under a
// homomorphism (agreeing on every constant position of t), in
// ascending id order. Within-tuple repeated-null consistency is NOT
// checked here; callers enforce it during search. The returned slice
// may share the index's storage and must not be modified.
//
//lint:testonly cover and data tests check the posting lists through it
func (ix *Index) Candidates(t Tuple) []int32 {
	var buf []int32
	return ix.candidates(ix.rels[t.Rel], t, &buf)
}

// candidates is Candidates over t's relation postings (nil when the
// relation holds no tuples). When the probe list needs filtering — t
// has several constants, the relation mixes arities, or ids were
// removed — the survivors are written to *buf, which keeps the grown
// array for the next call; otherwise the probe list is returned as is.
func (ix *Index) candidates(rp *relPostings, t Tuple, buf *[]int32) []int32 {
	probe := ix.probe(rp, t)
	if ix.dead == nil && rp != nil && rp.arity == len(t.Args) && constants(t) <= 1 {
		// Every tuple of the probe list has t's arity and agrees with
		// its constant, if any: the list is the candidate set.
		return probe
	}
	out := (*buf)[:0]
	for _, id := range probe {
		if ix.live(id) && MatchConstPositions(t, ix.tuples[id]) {
			out = append(out, id)
		}
	}
	*buf = out
	return out
}

// Embeds reports whether the single tuple t has a homomorphic image
// among the live indexed tuples with id ≥ from (0 for all of them):
// from = the first appended id asks whether an Append gave t an image.
// It probes the posting lists directly and allocates nothing.
func (ix *Index) Embeds(t Tuple, from int32) bool {
	probe := ix.probe(ix.rels[t.Rel], t)
	if from > 0 {
		at, _ := slices.BinarySearch(probe, from)
		probe = probe[at:]
	}
	for _, id := range probe {
		if ix.live(id) && TupleMapsTo(t, ix.tuples[id]) {
			return true
		}
	}
	return false
}

// probe returns a posting list holding every candidate image of t:
// the first list among t's constant positions no longer than
// shortProbe, else the shortest of them, or the relation's ids when t
// has no constant. Every caller filters the list exactly
// (Index.candidates, Embeds, IndexOf), so the choice changes how many
// ids they check, never what they yield; past a short list, a further
// value lookup costs more than the few ids it could save. A nil rp
// has no tuples.
func (ix *Index) probe(rp *relPostings, t Tuple) []int32 {
	if rp == nil {
		return nil
	}
	probe := ix.list(rp.all)
	for p, a := range t.Args {
		if a.null {
			continue
		}
		if l := ix.posting(rp, p, a); len(l) < len(probe) {
			probe = l
		}
		if len(probe) <= shortProbe {
			break
		}
	}
	if len(probe) == 0 {
		return nil
	}
	return probe
}

// shortProbe is the posting-list length at which probe stops looking
// for a shorter list.
const shortProbe = 8

// posting returns the ids of rp's tuples holding v at position p.
func (ix *Index) posting(rp *relPostings, p int, v Value) []int32 {
	if s, ok := rp.slot(p, v); ok {
		return ix.list(s)
	}
	return nil
}

// slot returns the slot of v's list at position p, if v has one.
func (rp *relPostings) slot(p int, v Value) (int32, bool) {
	if p >= len(rp.consts) {
		return 0, false
	}
	m := rp.consts[p]
	if v.null {
		m = rp.nulls[p]
	}
	s, ok := m[v.name]
	return s, ok
}

// constants counts t's constant arguments.
func constants(t Tuple) int {
	n := 0
	for _, a := range t.Args {
		if !a.IsNull() {
			n++
		}
	}
	return n
}

// live is Live for an id known to be in range.
func (ix *Index) live(id int32) bool { return ix.dead == nil || !ix.dead[id] }

// IndexedMatch is the allocation-free analogue of BlockMatch emitted
// by Searcher.EnumeratePartialHoms: Image[i] is the id of the target
// tuple block tuple i maps to, valid only where Mapped[i] is true.
// Under Searcher.CollapseInert one match may stand for a run of
// matches that differ only in the image of an inert leaf, which it
// leaves unmapped. The struct and its slices are reused across
// emissions — callers must consume it inside the callback and not
// retain it.
type IndexedMatch struct {
	Mapped []bool
	Image  []int32
}

// probeCutoff is the candidate-set size above which the search looks
// for a shorter posting list through the tuple's bound nulls: below
// it, trying every candidate is cheaper than the value lookups.
const probeCutoff = 16

// candSet is one block tuple's candidate set with its relation's
// postings, which the bound-null probe reads.
type candSet struct {
	ids []int32
	rp  *relPostings
}

// Searcher runs indexed homomorphism searches against one Index,
// reusing all search scratch across calls. A Searcher is not safe for
// concurrent use; build one per worker (the Index itself is shared and
// read-only).
type Searcher struct {
	// CollapseInert makes the search count, rather than visit, the run
	// of images of an inert leaf: the last processed block tuple, when
	// it has no constant and none of its nulls is bound by the tuples
	// mapped before it. Mapping such a tuple corroborates nothing and,
	// under the corroboration rule, covers nothing, so its images differ
	// only in a score of 0. The run is reported as one emission with the
	// tuple unmapped and the rest of it is added to the emitted count,
	// capped where the full enumeration would hit the limit; a callback
	// returning false on that emission stops the search as it would
	// after the run's first match. Counts, and every maximum over the
	// matches of a score that ignores inert tuples, are unchanged; the
	// emission sequence is the full one's with each run folded into one
	// match.
	CollapseInert bool

	ix *Index

	// Search scratch, grown on demand. Per-position slices are indexed
	// by processing position k (block tuple order[k]).
	order []int
	// consts, cands and filtered are by block tuple: its constant
	// count, its candidate set and, when its probe list needed
	// filtering (see Index.candidates), the array holding the set.
	consts   []int
	cands    []candSet
	filtered [][]int32
	// Each position may only map to ids in [lo, hi); optional marks
	// the positions that may also be skipped.
	lo, hi   []int32
	optional []bool
	// mapped and image, by block tuple, are the match being built.
	mapped []bool
	image  []int32
	// The block's nulls are numbered into slots once per search:
	// argSlot[argOff[k]+p] is the slot of argument p of the k-th
	// processed tuple, or -1 for a constant. slotVal holds the image of
	// each bound slot and stack the bound slots in binding order, which
	// doubles as the backtracking trail.
	argSlot  []int32
	argOff   []int
	slotLbls []string
	slotVal  []Value
	isBound  []bool
	stack    []int32
	match    IndexedMatch

	block   []Tuple
	limit   int
	emitted int
	emit    func(*IndexedMatch) bool
	stopped bool
}

// NewSearcher builds a searcher over the index.
func NewSearcher(ix *Index) *Searcher { return &Searcher{ix: ix} }

// EnumeratePartialHoms enumerates partial homomorphisms from block
// into the indexed instance, with the exact semantics, enumeration
// order and limit behaviour of the package-level EnumeratePartialHoms
// (limit <= 0 means the same default cap; see CollapseInert for the
// one opt-in departure), and returns the number of matches it
// enumerated, counted ones included. The emitted IndexedMatch is
// reused across calls; see its doc comment.
func (s *Searcher) EnumeratePartialHoms(block []Tuple, limit int, emit func(*IndexedMatch) bool) int {
	s.begin(block, limit, emit)
	s.plan(-1, 0)
	s.rec(0)
	return s.end()
}

// BlockEmbeds reports whether a total homomorphism maps every tuple of
// block into the live indexed tuples (constants preserved, nulls
// consistent). It plans the search as EnumeratePartialHoms does but
// makes every position required, so a dead end emits nothing and the
// first emission is a total embedding: no match limit can hide one.
// Under CollapseInert that emission may leave an inert leaf unmapped,
// but only when the leaf has an image.
func (s *Searcher) BlockEmbeds(block []Tuple) bool {
	s.begin(block, 1, func(*IndexedMatch) bool { return false })
	s.plan(-1, 0)
	clear(s.optional)
	s.rec(0)
	return s.end() > 0
}

// TupleEmbeds reports whether t, tuple i of the block the last search
// ran on, has a homomorphic image among the live indexed tuples: it is
// Index.Embeds(t, 0) without probing the posting lists again, since
// the search left t's candidate set (the live ids agreeing with its
// constants) in place. Only the repeated-null check is left to run.
func (s *Searcher) TupleEmbeds(i int, t Tuple) bool {
	for _, id := range s.cands[i].ids {
		if repeatedNullsConsistent(t, s.ix.tuples[id]) {
			return true
		}
	}
	return false
}

// EnumerateNewHoms enumerates the partial homomorphisms from block that
// map at least one block tuple onto an id ≥ base: after an Append of
// ids base.., exactly the matches a search before it could not find.
// They come in no particular order. It enumerates at most limit
// matches (limit <= 0 means the default cap; CollapseInert counts an
// inert leaf's run as EnumeratePartialHoms does) and returns how many
// it enumerated.
//
// Each such match is found once, under the first block tuple it maps
// to a new id: that tuple is searched first, among the new ids only,
// so its nulls bind before the rest of the block is searched, and the
// block tuples before it map to older ids or are skipped.
func (s *Searcher) EnumerateNewHoms(block []Tuple, base int32, limit int, emit func(*IndexedMatch) bool) int {
	s.begin(block, limit, emit)
	for f := range block {
		if s.plan(f, base) {
			s.rec(0)
		}
		if s.stopped || s.emitted >= s.limit {
			break
		}
	}
	return s.end()
}

// begin sets up the per-block state of a search.
func (s *Searcher) begin(block []Tuple, limit int, emit func(*IndexedMatch) bool) {
	if limit <= 0 {
		limit = DefaultHomLimit
	}
	n := len(block)
	s.grow(n)
	for i, t := range block {
		s.consts[i] = constants(t)
		rp := s.ix.rels[t.Rel]
		s.cands[i] = candSet{ids: s.ix.candidates(rp, t, &s.filtered[i]), rp: rp}
	}
	clear(s.mapped)
	s.block, s.limit, s.emitted, s.emit, s.stopped = block, limit, 0, emit, false
	s.match.Mapped = s.mapped
	s.match.Image = s.image
}

// end releases the caller's block and callback and returns the number
// of matches emitted.
func (s *Searcher) end() int {
	s.block, s.emit = nil, nil
	return s.emitted
}

// plan sets up the processing order, id ranges and null slots of one
// search. With f < 0 the search is the reference one: constant-rich
// tuples first (same stable insertion sort as the reference path) so
// nulls bind early and all-null tuples see a small candidate set,
// every id allowed. With f ≥ 0, block tuple f comes first and must map
// to an id ≥ base, and the tuples before f may map only to ids below
// base; plan reports false, planning nothing, when f has no candidate
// ≥ base.
func (s *Searcher) plan(f int, base int32) bool {
	if f >= 0 {
		if ids := s.cands[f].ids; len(ids) == 0 || ids[len(ids)-1] < base {
			return false
		}
	}
	block := s.block
	order := s.order[:0]
	if f >= 0 {
		order = append(order, f)
	}
	for i := range block {
		if i != f {
			order = append(order, i)
		}
	}
	first := 0 // f, if any, stays first
	if f >= 0 {
		first = 1
	}
	for i := first + 1; i < len(order); i++ {
		for j := i; j > first && s.consts[order[j]] > s.consts[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	s.argSlot = s.argSlot[:0]
	s.slotLbls = s.slotLbls[:0]
	for k, i := range order {
		s.lo[k], s.hi[k], s.optional[k] = 0, math.MaxInt32, true
		switch {
		case f < 0:
		case i == f:
			s.lo[k], s.optional[k] = base, false
		case i < f:
			s.hi[k] = base
		}
		s.argOff[k] = len(s.argSlot)
		for _, a := range block[i].Args {
			s.argSlot = append(s.argSlot, s.slotOf(a))
		}
	}
	s.argOff[len(order)] = len(s.argSlot)
	for len(s.slotVal) < len(s.slotLbls) {
		s.slotVal = append(s.slotVal, Value{})
		s.isBound = append(s.isBound, false)
	}
	s.stack = s.stack[:0]
	return true
}

// slotOf returns the null slot of a, numbering a new label on first
// sight, or -1 for a constant.
func (s *Searcher) slotOf(a Value) int32 {
	if !a.IsNull() {
		return -1
	}
	for k, l := range s.slotLbls {
		if l == a.Name() {
			return int32(k)
		}
	}
	s.slotLbls = append(s.slotLbls, a.Name())
	return int32(len(s.slotLbls) - 1)
}

// grow sizes the scratch for a block of n tuples.
func (s *Searcher) grow(n int) {
	if cap(s.order) < n {
		s.order = make([]int, n)
		s.consts = make([]int, n)
		s.cands = make([]candSet, n)
		s.lo = make([]int32, n)
		s.hi = make([]int32, n)
		s.optional = make([]bool, n)
		s.mapped = make([]bool, n)
		s.image = make([]int32, n)
		s.argOff = make([]int, n+1)
	}
	for len(s.filtered) < n {
		s.filtered = append(s.filtered, nil)
	}
	s.order = s.order[:n]
	s.consts = s.consts[:n]
	s.cands = s.cands[:n]
	s.lo = s.lo[:n]
	s.hi = s.hi[:n]
	s.optional = s.optional[:n]
	s.mapped = s.mapped[:n]
	s.image = s.image[:n]
	s.argOff = s.argOff[:n+1]
}

func (s *Searcher) rec(k int) {
	if s.stopped || s.emitted >= s.limit {
		return
	}
	if k == len(s.block) {
		s.emitted++
		if !s.emit(&s.match) {
			s.stopped = true
		}
		return
	}
	i := s.order[k]
	t := s.block[i]
	slots := s.argSlot[s.argOff[k]:s.argOff[k+1]]
	if s.CollapseInert && k == len(s.block)-1 && s.consts[i] == 0 {
		if inert, repeated := s.inertSlots(slots); inert {
			s.countRun(k, t, repeated)
			return
		}
	}
	// A bound null narrows the candidates to the posting list of its
	// image at that position. The filtered list is exactly the
	// subsequence of the candidate set that tryBind could accept, in
	// the same ascending-id order, so the emissions do not change.
	probe, filter := s.cands[i].ids, false
	if len(probe) > probeCutoff {
		for p, sl := range slots {
			if sl < 0 || !s.isBound[sl] {
				continue
			}
			if l := s.ix.posting(s.cands[i].rp, p, s.slotVal[sl]); len(l) < len(probe) {
				probe, filter = l, true
			}
		}
	}
	if lo := s.lo[k]; lo > 0 {
		at, _ := slices.BinarySearch(probe, lo)
		probe = probe[at:]
	}
	// Option 1: map tuple i to each consistent candidate in range.
	for _, cid := range probe {
		if cid >= s.hi[k] {
			break
		}
		cand := s.ix.tuples[cid]
		if filter && (!s.ix.live(cid) || !MatchConstPositions(t, cand)) {
			continue
		}
		mark := len(s.stack)
		if s.tryBind(slots, cand) {
			s.mapped[i] = true
			s.image[i] = cid
			s.rec(k + 1)
			s.mapped[i] = false
		}
		for _, sl := range s.stack[mark:] {
			s.isBound[sl] = false
		}
		s.stack = s.stack[:mark]
		if s.stopped || s.emitted >= s.limit {
			return
		}
	}
	// Option 2: skip tuple i.
	if s.optional[k] {
		s.rec(k + 1)
	}
}

// inertSlots reports whether none of the given null slots is bound,
// and whether a slot occurs twice (a repeated null).
func (s *Searcher) inertSlots(slots []int32) (inert, repeated bool) {
	for p, sl := range slots {
		if s.isBound[sl] {
			return false, false
		}
		repeated = repeated || slices.Contains(slots[:p], sl)
	}
	return true, repeated
}

// countRun takes the place of rec's two options for the inert leaf at
// position k (see CollapseInert). Without a repeated null every
// candidate in [lo, hi) is an image, so two binary searches count the
// run; with one, the candidates are checked until the limit is reached.
// One emission, the tuple unmapped, stands for a non-empty run; the
// skip option follows when the limit allows, as in rec.
func (s *Searcher) countRun(k int, t Tuple, repeated bool) {
	probe := s.cands[s.order[k]].ids
	at, _ := slices.BinarySearch(probe, s.lo[k])
	end, _ := slices.BinarySearch(probe, s.hi[k])
	probe = probe[at:end]
	n := len(probe)
	if repeated {
		n = 0
		for _, cid := range probe {
			if repeatedNullsConsistent(t, s.ix.tuples[cid]) {
				if n++; s.emitted+n >= s.limit {
					break
				}
			}
		}
	}
	if n > 0 {
		s.emitted++
		if !s.emit(&s.match) {
			s.stopped = true
			return
		}
		s.emitted += min(n-1, s.limit-s.emitted)
		if s.emitted >= s.limit {
			return
		}
	}
	if s.optional[k] {
		s.rec(k + 1)
	}
}

// tryBind extends the current null assignment so that the tuple with
// the given argument slots maps onto cand, pushing new bindings on the
// stack. Constants were already verified by the candidate probe. On
// failure the caller rolls back to its mark (partial binds included).
func (s *Searcher) tryBind(slots []int32, cand Tuple) bool {
	for p, sl := range slots {
		if sl < 0 {
			continue
		}
		if s.isBound[sl] {
			if s.slotVal[sl] != cand.Args[p] {
				return false
			}
			continue
		}
		s.isBound[sl] = true
		s.slotVal[sl] = cand.Args[p]
		s.stack = append(s.stack, sl)
	}
	return true
}

// BlockKeyBuf renders canonical block keys into reused scratch, so a
// memo lookup by string(kb.Key(block)) does not allocate.
type BlockKeyBuf struct {
	buf  []byte
	lbls []string
}

// Key renders a block of tuples canonically up to null renaming:
// nulls are numbered by first occurrence across the whole block,
// constants verbatim. Two blocks with equal keys are isomorphic, so
// per-block computations (homomorphism evidence) can be memoised on
// it. The bytes are valid until the next call.
func (kb *BlockKeyBuf) Key(block []Tuple) []byte {
	kb.buf = kb.buf[:0]
	kb.lbls = kb.lbls[:0]
	for _, t := range block {
		kb.buf = appendCanonPattern(kb.buf, t, &kb.lbls)
		kb.buf = append(kb.buf, ';')
	}
	return kb.buf
}

// appendCanonPattern appends the canonical pattern of t (see
// Tuple.CanonPattern: nulls numbered by first occurrence) to buf,
// using lbls as numbering scratch.
func appendCanonPattern(buf []byte, t Tuple, lbls *[]string) []byte {
	buf = appendEscaped(buf, t.Rel, relSpecial)
	buf = append(buf, '(')
	for i, a := range t.Args {
		if i > 0 {
			buf = append(buf, ',')
		}
		if a.IsNull() {
			n := -1
			for k, l := range *lbls {
				if l == a.Name() {
					n = k
					break
				}
			}
			if n < 0 {
				n = len(*lbls)
				*lbls = append(*lbls, a.Name())
			}
			buf = append(buf, '*')
			buf = appendInt(buf, n)
		} else {
			buf = appendEscaped(buf, a.Name(), patternSpecial)
		}
	}
	return append(buf, ')')
}

// appendInt appends the decimal form of a small non-negative int.
func appendInt(buf []byte, n int) []byte {
	if n >= 10 {
		buf = appendInt(buf, n/10)
	}
	return append(buf, byte('0'+n%10))
}

// TupleMapsTo reports whether the single tuple t maps onto cand under
// a homomorphism: constants preserved and repeated nulls consistently
// assigned. It is the per-image predicate behind Embeds.
func TupleMapsTo(t, cand Tuple) bool {
	return MatchConstPositions(t, cand) && repeatedNullsConsistent(t, cand)
}

// repeatedNullsConsistent reports whether cand assigns equal values to
// every pair of positions of t sharing a null label.
func repeatedNullsConsistent(t, cand Tuple) bool {
	for p, a := range t.Args {
		if !a.IsNull() {
			continue
		}
		for q := p + 1; q < len(t.Args); q++ {
			b := t.Args[q]
			if b.IsNull() && b.Name() == a.Name() && cand.Args[p] != cand.Args[q] {
				return false
			}
		}
	}
	return true
}
