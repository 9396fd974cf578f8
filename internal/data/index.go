package data

// This file implements the indexed fast path for homomorphism search.
// The scan-based reference in hom.go probes candidate images by
// walking every target tuple of a relation; at scenario scale that
// rescan of J per block tuple dominates Problem.Prepare. The Index
// replaces it with posting lists (relation → constant position →
// value → tuple ids), and the Searcher adds per-tuple candidate-set
// memoisation plus reusable search scratch, so one enumeration does
// index lookups only and allocates nothing per call.
//
// The enumeration order is identical to the reference path: block
// tuples are processed constant-rich first (same stable sort), and
// candidate images are tried in target insertion order (posting lists
// are built in global id order, which is Instance.All() order). The
// differential tests in index_test.go and internal/cover pin the two
// paths against each other, hom limits included.

// Index is a probe structure over one instance. Tuple ids are
// positions in the Instance.All() order at build time; the index does
// not observe later mutations of the instance, but Append extends it
// with new tuples (ids continue past the existing ones), which is the
// streaming ingestion path of cover.Tracker.
type Index struct {
	tuples []Tuple
	rels   map[string][]int32
	post   map[postKey][]int32
	// Tombstones: Remove marks ids dead instead of compacting, so
	// every live id stays stable and posting lists need no surgery.
	// dead stays nil until the first Remove, keeping the append-only
	// fast path allocation- and branch-predictable.
	dead    []bool
	numDead int
}

// postKey addresses one posting list: the tuples of a relation holding
// a specific value at a specific argument position.
type postKey struct {
	rel string
	pos int
	val Value
}

// NewIndex builds the posting-list index of an instance.
func NewIndex(in *Instance) *Index { return IndexTuples(in.All()) }

// IndexTuples builds the posting-list index of a tuple list: a
// tuple's id is its position in the list. The index takes ownership
// of the slice (Tuples returns it) — the caller must not modify it.
func IndexTuples(tuples []Tuple) *Index {
	ix := &Index{
		tuples: tuples,
		rels:   make(map[string][]int32),
		post:   make(map[postKey][]int32),
	}
	for id, t := range ix.tuples {
		ix.rels[t.Rel] = append(ix.rels[t.Rel], int32(id))
		for p, a := range t.Args {
			k := postKey{rel: t.Rel, pos: p, val: a}
			ix.post[k] = append(ix.post[k], int32(id))
		}
	}
	return ix
}

// Append extends the index with new tuples, assigning them the next
// ids. Posting lists stay in ascending id order (appended ids are
// larger than every existing id), so enumeration order over tuples
// already indexed is unchanged — the property the incremental cover
// path relies on to skip blocks untouched by a delta. The caller is
// responsible for not appending duplicates of indexed tuples.
func (ix *Index) Append(tuples []Tuple) {
	for _, t := range tuples {
		id := int32(len(ix.tuples))
		ix.tuples = append(ix.tuples, t)
		if ix.dead != nil {
			ix.dead = append(ix.dead, false)
		}
		ix.rels[t.Rel] = append(ix.rels[t.Rel], id)
		for p, a := range t.Args {
			k := postKey{rel: t.Rel, pos: p, val: a}
			ix.post[k] = append(ix.post[k], id)
		}
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
		ix.numDead++
	}
}

// Live reports whether id is indexed and not tombstoned.
func (ix *Index) Live(id int32) bool {
	if id < 0 || int(id) >= len(ix.tuples) {
		return false
	}
	return ix.dead == nil || !ix.dead[id]
}

// NumLive returns the number of live (non-tombstoned) tuples.
func (ix *Index) NumLive() int { return len(ix.tuples) - ix.numDead }

// NumDead returns the number of tombstoned tuples.
func (ix *Index) NumDead() int { return ix.numDead }

// Len returns the number of indexed tuples.
func (ix *Index) Len() int { return len(ix.tuples) }

// Tuples returns all indexed tuples; the slice position of a tuple is
// its id (shared slice; do not mutate).
func (ix *Index) Tuples() []Tuple { return ix.tuples }

// Tuple resolves an id.
func (ix *Index) Tuple(id int32) Tuple { return ix.tuples[id] }

// Candidates returns the ids of tuples that t can map onto under a
// homomorphism (agreeing on every constant position of t), in
// ascending id order. Within-tuple repeated-null consistency is NOT
// checked here; callers enforce it during search. The returned slice
// is freshly allocated; Searcher memoises it per tuple pattern.
func (ix *Index) Candidates(t Tuple) []int32 {
	// Probe the most selective posting list among t's constant
	// positions, then verify the remaining constants per candidate.
	probe := ix.rels[t.Rel]
	havePost := false
	for p, a := range t.Args {
		if a.IsNull() {
			continue
		}
		l := ix.post[postKey{rel: t.Rel, pos: p, val: a}]
		if !havePost || len(l) < len(probe) {
			probe, havePost = l, true
		}
		if len(probe) == 0 {
			return nil
		}
	}
	out := make([]int32, 0, len(probe))
	if ix.dead == nil {
		for _, id := range probe {
			if MatchConstPositions(t, ix.tuples[id]) {
				out = append(out, id)
			}
		}
		return out
	}
	for _, id := range probe {
		if !ix.dead[id] && MatchConstPositions(t, ix.tuples[id]) {
			out = append(out, id)
		}
	}
	return out
}

// IndexedMatch is the allocation-free analogue of BlockMatch emitted
// by Searcher.EnumeratePartialHoms: Image[i] is the id of the target
// tuple block tuple i maps to, valid only where Mapped[i] is true.
// The struct and its slices are reused across emissions — callers
// must consume it inside the callback and not retain it.
type IndexedMatch struct {
	Mapped []bool
	Image  []int32
}

// Searcher runs indexed homomorphism searches against one Index. It
// memoises candidate sets per tuple pattern and single-tuple
// embedding verdicts per canonical pattern, and reuses all search
// scratch. A Searcher is not safe for concurrent use; build one per
// worker (the Index itself is shared and read-only).
type Searcher struct {
	ix       *Index
	candMemo map[string][]int32
	embMemo  map[string]bool

	// Search scratch, grown on demand.
	order  []int
	consts []int
	cands  [][]int32
	mapped []bool
	image  []int32
	// Null bindings as parallel slices: blocks bind only a handful of
	// nulls at a time, so a linear scan beats map hashing and the
	// binding list doubles as the backtracking stack.
	nullLbls []string
	nullVals []Value
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
		candMemo: make(map[string][]int32),
		embMemo:  make(map[string]bool),
	}
}

// Index returns the underlying index.
func (s *Searcher) Index() *Index { return s.ix }

// candidatesFor returns the memoised candidate set of a tuple. The
// set depends only on the tuple's pattern (relation, arity, constant
// positions and values), so chase tuples repeating across firings and
// candidates hit the cache. The key is built into a reused buffer;
// lookups by string(buf) do not allocate, only misses intern the key.
func (s *Searcher) candidatesFor(t Tuple) []int32 {
	s.keyBuf = appendPattern(s.keyBuf[:0], t)
	if c, ok := s.candMemo[string(s.keyBuf)]; ok {
		return c
	}
	c := s.ix.Candidates(t)
	s.candMemo[string(s.keyBuf)] = c
	return c
}

// appendPattern appends the null-insensitive pattern of t (see
// Tuple.Pattern) to buf.
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
		c := 0
		for _, a := range t.Args {
			if !a.IsNull() {
				c++
			}
		}
		consts[i] = c
	}
	// Constant-rich tuples first (same stable insertion sort as the
	// reference path) so nulls bind early and all-null tuples see a
	// small candidate set.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && consts[order[j]] > consts[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for k := 0; k < n; k++ {
		s.cands[k] = s.candidatesFor(block[order[k]])
		s.mapped[k] = false
	}
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

// grow sizes the scratch for a block of n tuples.
func (s *Searcher) grow(n int) {
	if cap(s.order) < n {
		s.order = make([]int, n)
		s.consts = make([]int, n)
		s.cands = make([][]int32, n)
		s.mapped = make([]bool, n)
		s.image = make([]int32, n)
	}
	s.order = s.order[:n]
	s.consts = s.consts[:n]
	s.cands = s.cands[:n]
	s.mapped = s.mapped[:n]
	s.image = s.image[:n]
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
	// Option 1: map tuple i to each consistent candidate.
	for _, cid := range s.cands[k] {
		mark := len(s.nullLbls)
		if s.tryBind(t, s.ix.tuples[cid]) {
			s.mapped[i] = true
			s.image[i] = cid
			s.rec(k + 1)
			s.mapped[i] = false
		}
		s.nullLbls = s.nullLbls[:mark]
		s.nullVals = s.nullVals[:mark]
		if s.stopped || s.emitted >= s.limit {
			return
		}
	}
	// Option 2: skip tuple i.
	s.rec(k + 1)
}

// tryBind extends the current null assignment so that t maps onto
// cand, appending new bindings to the stack. Constants were already
// verified by the candidate probe. On failure the caller rolls back
// to its mark (partial binds included).
func (s *Searcher) tryBind(t, cand Tuple) bool {
	for p, a := range t.Args {
		if !a.IsNull() {
			continue
		}
		lbl := a.Name()
		bound := false
		for k := len(s.nullLbls) - 1; k >= 0; k-- {
			if s.nullLbls[k] == lbl {
				if s.nullVals[k] != cand.Args[p] {
					return false
				}
				bound = true
				break
			}
		}
		if bound {
			continue
		}
		s.nullLbls = append(s.nullLbls, lbl)
		s.nullVals = append(s.nullVals, cand.Args[p])
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
	for _, cid := range s.candidatesFor(t) {
		if repeatedNullsConsistent(t, s.ix.tuples[cid]) {
			res = true
			break
		}
	}
	s.embMemo[string(s.canonBuf)] = res
	return res
}

// BlockCanonKey renders a block of tuples canonically up to null
// renaming: nulls are numbered by first occurrence across the whole
// block, constants verbatim. Two blocks with equal keys are
// isomorphic, so per-block computations (homomorphism evidence) can
// be memoised on it.
func BlockCanonKey(block []Tuple) string {
	var buf []byte
	var lbls []string
	for _, t := range block {
		buf = appendCanonPattern(buf, t, &lbls)
		buf = append(buf, ';')
	}
	return string(buf)
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
