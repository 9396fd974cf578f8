package data

// This file implements the indexed fast path for homomorphism search.
// The scan-based reference in hom.go probes candidate images by
// walking every target tuple of a relation; at scenario scale that
// rescan of J per block tuple dominates Problem.Prepare. The Index
// replaces it with two-level posting lists (relation → argument
// position → value → tuple ids), and the Searcher adds per-tuple
// candidate-set memoisation, bound-null probes and reusable search
// scratch, so one enumeration does index lookups only and allocates
// nothing per call.
//
// The enumeration order is identical to the reference path: block
// tuples are processed constant-rich first (same stable sort), and
// candidate images are tried in target insertion order (posting lists
// are built in global id order, which is Instance.All() order). The
// differential tests and the fuzz target in index_test.go, and the
// analysis differentials in internal/cover, pin the two paths against
// each other, hom limits included.

// Index is a probe structure over one instance. Tuple ids are
// positions in the Instance.All() order at build time; the index does
// not observe later mutations of the instance, but Append extends it
// with new tuples (ids continue past the existing ones), which is the
// streaming ingestion path of cover.Tracker.
type Index struct {
	tuples []Tuple
	rels   map[string]*relPostings
	// Tombstones: Remove marks ids dead instead of compacting, so
	// every live id stays stable and posting lists need no surgery.
	// dead stays nil until the first Remove, keeping the append-only
	// fast path allocation- and branch-predictable.
	dead []bool
}

// relPostings is the second index level of one relation: its tuple
// ids, and per argument position the ids holding each value there.
// Every list is in ascending id order.
type relPostings struct {
	ids []int32
	pos []map[Value][]int32
	// arity is the arity every tuple of the relation has, or -1 when
	// they differ.
	arity int
}

// add appends tuple id to the relation's lists.
func (rp *relPostings) add(id int32, t Tuple) {
	if len(rp.ids) == 0 {
		rp.arity = len(t.Args)
	} else if rp.arity != len(t.Args) {
		rp.arity = -1
	}
	rp.ids = append(rp.ids, id)
	for len(rp.pos) < len(t.Args) {
		rp.pos = append(rp.pos, make(map[Value][]int32))
	}
	for p, a := range t.Args {
		rp.pos[p][a] = append(rp.pos[p][a], id)
	}
}

// posting returns the ids of the relation's tuples holding v at
// position p.
func (rp *relPostings) posting(p int, v Value) []int32 {
	if p >= len(rp.pos) {
		return nil
	}
	return rp.pos[p][v]
}

// NewIndex builds the posting-list index of an instance.
//
//lint:testonly cover and data tests index whole instances with it
func NewIndex(in *Instance) *Index { return IndexTuples(in.All()) }

// IndexTuples builds the posting-list index of a tuple list: a
// tuple's id is its position in the list. The index takes ownership
// of the slice (Tuples returns it) — the caller must not modify it.
func IndexTuples(tuples []Tuple) *Index {
	ix := &Index{tuples: tuples, rels: make(map[string]*relPostings)}
	ix.indexFrom(0)
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
	ix.indexFrom(base)
}

// indexFrom adds the tuples with ids base.. to the posting lists.
func (ix *Index) indexFrom(base int) {
	var rel string
	var rp *relPostings
	for id := base; id < len(ix.tuples); id++ {
		t := ix.tuples[id]
		// Tuples arrive grouped by relation, so the first level is
		// looked up once per run of equal relations.
		if rp == nil || t.Rel != rel {
			rel = t.Rel
			rp = ix.rels[rel]
			if rp == nil {
				rp = &relPostings{}
				ix.rels[rel] = rp
			}
		}
		rp.add(int32(id), t)
	}
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
}

// Tuples returns all indexed tuples; the slice position of a tuple is
// its id (shared slice; do not mutate).
func (ix *Index) Tuples() []Tuple { return ix.tuples }

// Tuple resolves an id.
//
//lint:testonly cover and data tests resolve index ids with it
func (ix *Index) Tuple(id int32) Tuple { return ix.tuples[id] }

// Candidates returns the ids of tuples that t can map onto under a
// homomorphism (agreeing on every constant position of t), in
// ascending id order. Within-tuple repeated-null consistency is NOT
// checked here; callers enforce it during search. The returned slice
// may share the index's storage and must not be modified; Searcher
// memoises it per tuple pattern.
//
//lint:testonly cover and data tests check the posting lists through it
func (ix *Index) Candidates(t Tuple) []int32 { return ix.candidates(ix.rels[t.Rel], t) }

// candidates is Candidates over t's relation postings (nil when the
// relation holds no tuples).
func (ix *Index) candidates(rp *relPostings, t Tuple) []int32 {
	probe := rp.probe(t)
	if ix.dead == nil && rp != nil && rp.arity == len(t.Args) && constants(t) <= 1 {
		// Every tuple of the probe list has t's arity and agrees with
		// its constant, if any: the list is the candidate set.
		return probe
	}
	out := make([]int32, 0, len(probe))
	for _, id := range probe {
		if ix.live(id) && MatchConstPositions(t, ix.tuples[id]) {
			out = append(out, id)
		}
	}
	return out
}

// Embeds reports whether the single tuple t has a homomorphic image
// among the live indexed tuples. Unlike Searcher.TupleEmbeds it
// memoises nothing and allocates nothing: it suits one-off probes of a
// small index, such as a delta.
func (ix *Index) Embeds(t Tuple) bool {
	for _, id := range ix.rels[t.Rel].probe(t) {
		if ix.live(id) && TupleMapsTo(t, ix.tuples[id]) {
			return true
		}
	}
	return false
}

// probe returns the most selective posting list among t's constant
// positions (the relation's ids when t has none); every candidate
// image of t is in it. A nil receiver has no tuples.
func (rp *relPostings) probe(t Tuple) []int32 {
	if rp == nil {
		return nil
	}
	probe := rp.ids
	for p, a := range t.Args {
		if a.IsNull() {
			continue
		}
		if l := rp.posting(p, a); len(l) < len(probe) {
			probe = l
		}
		if len(probe) == 0 {
			return nil
		}
	}
	return probe
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
// The struct and its slices are reused across emissions — callers
// must consume it inside the callback and not retain it.
type IndexedMatch struct {
	Mapped []bool
	Image  []int32
}

// probeCutoff is the candidate-set size above which the search looks
// for a shorter posting list through the tuple's bound nulls: below
// it, trying every candidate is cheaper than the value lookups.
const probeCutoff = 16

// candSet is a memoised candidate set with its relation's postings,
// which the bound-null probe reads.
type candSet struct {
	ids []int32
	rp  *relPostings
}

// Searcher runs indexed homomorphism searches against one Index. It
// memoises candidate sets per tuple pattern and single-tuple
// embedding verdicts per canonical pattern, and reuses all search
// scratch. A Searcher is not safe for concurrent use; build one per
// worker (the Index itself is shared and read-only).
type Searcher struct {
	ix       *Index
	candMemo map[string]candSet
	embMemo  map[string]bool

	// Search scratch, grown on demand. Per-tuple slices are indexed by
	// processing position k (block tuple order[k]).
	order  []int
	consts []int
	cands  []candSet
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
	keyBuf   []byte
	canonBuf []byte
	keyLbls  []string

	block   []Tuple
	limit   int
	emitted int
	emit    func(*IndexedMatch) bool
	stopped bool
}

// NewSearcher builds a searcher over the index.
func NewSearcher(ix *Index) *Searcher {
	return &Searcher{
		ix:       ix,
		candMemo: make(map[string]candSet),
		embMemo:  make(map[string]bool),
	}
}

// candidatesFor returns the memoised candidate set of a tuple. The
// set depends only on the tuple's pattern (relation, arity, constant
// positions and values), so chase tuples repeating across firings and
// candidates hit the cache. The key is built into a reused buffer;
// lookups by string(buf) do not allocate, only misses intern the key.
func (s *Searcher) candidatesFor(t Tuple) candSet {
	s.keyBuf = appendPattern(s.keyBuf[:0], t)
	if c, ok := s.candMemo[string(s.keyBuf)]; ok {
		return c
	}
	rp := s.ix.rels[t.Rel]
	c := candSet{ids: s.ix.candidates(rp, t), rp: rp}
	s.candMemo[string(s.keyBuf)] = c
	return c
}

// appendPattern appends the null-insensitive pattern of t (see
// Tuple.AppendPattern) to buf.
func appendPattern(buf []byte, t Tuple) []byte {
	buf = appendEscaped(buf, t.Rel, relSpecial)
	buf = append(buf, '(')
	for i, a := range t.Args {
		if i > 0 {
			buf = append(buf, ',')
		}
		if a.IsNull() {
			buf = append(buf, '*')
		} else {
			buf = appendEscaped(buf, a.Name(), patternSpecial)
		}
	}
	return append(buf, ')')
}

// EnumeratePartialHoms enumerates partial homomorphisms from block
// into the indexed instance, with the exact semantics, enumeration
// order and limit behaviour of the package-level EnumeratePartialHoms
// (limit <= 0 means the same default cap). The emitted IndexedMatch
// is reused across calls; see its doc comment.
func (s *Searcher) EnumeratePartialHoms(block []Tuple, limit int, emit func(*IndexedMatch) bool) {
	if limit <= 0 {
		limit = 4096
	}
	n := len(block)
	s.grow(n)
	order := s.order[:n]
	consts := s.consts[:n]
	for i, t := range block {
		order[i] = i
		consts[i] = constants(t)
	}
	// Constant-rich tuples first (same stable insertion sort as the
	// reference path) so nulls bind early and all-null tuples see a
	// small candidate set.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && consts[order[j]] > consts[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	s.argSlot = s.argSlot[:0]
	s.slotLbls = s.slotLbls[:0]
	for k := 0; k < n; k++ {
		t := block[order[k]]
		s.cands[k] = s.candidatesFor(t)
		s.mapped[k] = false
		s.argOff[k] = len(s.argSlot)
		for _, a := range t.Args {
			s.argSlot = append(s.argSlot, s.slotOf(a))
		}
	}
	s.argOff[n] = len(s.argSlot)
	for len(s.slotVal) < len(s.slotLbls) {
		s.slotVal = append(s.slotVal, Value{})
		s.isBound = append(s.isBound, false)
	}
	s.stack = s.stack[:0]
	s.block = block
	s.limit = limit
	s.emitted = 0
	s.emit = emit
	s.stopped = false
	s.match.Mapped = s.mapped[:n]
	s.match.Image = s.image[:n]
	s.rec(0)
	s.block = nil
	s.emit = nil
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
		s.mapped = make([]bool, n)
		s.image = make([]int32, n)
		s.argOff = make([]int, n+1)
	}
	s.order = s.order[:n]
	s.consts = s.consts[:n]
	s.cands = s.cands[:n]
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
	// A bound null narrows the candidates to the posting list of its
	// image at that position. The filtered list is exactly the
	// subsequence of the candidate set that tryBind could accept, in
	// the same ascending-id order, so the emissions do not change.
	probe, filter := s.cands[k].ids, false
	if len(probe) > probeCutoff {
		for p, sl := range slots {
			if sl < 0 || !s.isBound[sl] {
				continue
			}
			if l := s.cands[k].rp.posting(p, s.slotVal[sl]); len(l) < len(probe) {
				probe, filter = l, true
			}
		}
	}
	// Option 1: map tuple i to each consistent candidate.
	for _, cid := range probe {
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
	s.rec(k + 1)
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

// TupleEmbeds reports whether the single tuple t has a homomorphic
// image in the indexed instance, memoised by canonical pattern (the
// verdict depends only on t's constants and repeated-null structure).
func (s *Searcher) TupleEmbeds(t Tuple) bool {
	s.keyLbls = s.keyLbls[:0]
	s.canonBuf = appendCanonPattern(s.canonBuf[:0], t, &s.keyLbls)
	if v, ok := s.embMemo[string(s.canonBuf)]; ok {
		return v
	}
	res := false
	for _, cid := range s.candidatesFor(t).ids {
		if repeatedNullsConsistent(t, s.ix.tuples[cid]) {
			res = true
			break
		}
	}
	s.embMemo[string(s.canonBuf)] = res
	return res
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
// assigned. It is the per-image predicate behind TupleEmbeds; the
// incremental cover path uses it to probe a small delta directly.
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
