// Package cover computes the per-candidate evidence measures of the
// paper's Eq. (9) objective: covers(θ, t) — the degree to which
// candidate θ explains target tuple t ∈ J — and creates(θ, t′) — the
// error indicator for tuples t′ ∈ K_θ that have no homomorphic image
// in J.
//
// The semantics are pinned by the appendix's worked example:
//
//   - A homomorphism must preserve constants, so a candidate tuple t′
//     can only explain a J tuple agreeing on all constant positions.
//   - A labelled-null position of t′ counts as covered only when the
//     null is *corroborated*: it also occurs in another tuple of the
//     same chase block whose image under the same (partial)
//     homomorphism lies in J. An uncorroborated null carries no
//     information about the concrete value in J.
//   - covers(θ,t) is the maximum coverage fraction over blocks of
//     K_θ, partial homomorphisms, and block tuples mapping onto t.
//   - creates(θ,t′) is 1 iff t′ has no homomorphic image in J.
//
// With these definitions the appendix's numbers are reproduced
// exactly (see the golden tests), and on full tgds they collapse to
// the binary Eq. (4) measures.
//
// Analysis is the hot input of every solver, so the evidence is kept
// sparse and index-friendly: covers values live in a sorted
// (CSR-style) pair slice rather than a map, homomorphism search probes
// the CSR posting lists of J (data.Index) directly, and the creates
// check of a just-searched block reads the search's candidate sets
// instead of probing again. K_θ is a set, but only the chase tuples
// of existential-free head atoms are keyed to dedup it: any other
// holds a null minted by its own firing, so comparing it with its
// block's earlier tuples suffices. Null corroboration is decided by
// per-block label bitmasks rather than label comparisons, and the
// inverted tuple→candidate incidence (Incidence) lets solvers rescan
// only the candidates touching a tuple. covers(θ, t) is a maximum over
// blocks and matches, so a cold analysis (AnalyzeN) folds each block's
// matches straight into its candidate's row and keeps nothing per
// block. Only the streaming Tracker (delta.go) keeps per-block rows:
// its memo holds each distinct chase block once, by canonical key, so
// that each is retained, and re-enumerated on a delta, once. A block
// counts the candidate block lists holding it, so a mutation touches
// only the blocks of the candidates it changes; its build and every
// mutation run serially on the calling goroutine.
// AnalyzeReference in reference.go preserves the original scan-based
// map pipeline with label-comparing corroboration; the differential
// tests pin the two against each other bit for bit.
package cover

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"schemamap/internal/chase"
	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// Options tune the analysis.
type Options struct {
	// Corroboration enables the null-corroboration rule (the paper's
	// collective signal). Disabling it is the E8 ablation: any mapped
	// null position counts as covered.
	Corroboration bool
	// HomLimit caps the number of partial homomorphisms enumerated
	// per block (0 means the package default).
	HomLimit int
}

// DefaultOptions returns the paper-faithful settings.
func DefaultOptions() Options {
	return Options{Corroboration: true}
}

// JIndex assigns stable indices to the tuples of the data example J:
// a tuple's JIndex position is its data.Index id. The index is the one
// record of the target: its posting lists serve the analysis, and its
// tombstones and IndexOf serve liveness and lookups by value.
//
// A view (ViewJ) is the tuples alone, with no index: the read-only
// target of a sub-problem that is only solved (see
// core.Problem.Subproblem). Every tuple of a view is live, and its
// IndexOf scans the tuples.
type JIndex struct {
	Tuples []data.Tuple
	idx    *data.Index // nil for a view
}

// IndexJ builds a JIndex over the instance.
func IndexJ(J *data.Instance) *JIndex {
	idx := data.IndexTuples(J.All())
	return &JIndex{Tuples: idx.Tuples(), idx: idx}
}

// ViewJ returns an index-free JIndex over the given tuples, id = slice
// position (see JIndex). It takes ownership of the slice; the tuples
// must be distinct.
func ViewJ(tuples []data.Tuple) *JIndex { return &JIndex{Tuples: tuples} }

// Append indexes new target tuples, assigning them the next ids (the
// posting lists of the underlying data.Index are extended in place).
// The caller must not append tuples already indexed; core.Problem
// dedups against its J instance first.
func (ix *JIndex) Append(tuples []data.Tuple) {
	ix.idx.Append(tuples)
	ix.Tuples = ix.idx.Tuples()
}

// Remove tombstones target tuples by id: IndexOf stops resolving them
// (re-appending an equal tuple later assigns a fresh id), the
// underlying data.Index filters them out of candidate probes, and the
// slot itself stays allocated, so live ids are stable and Len is
// unchanged. The ids must be live; core.Problem resolves and dedups
// them first.
func (ix *JIndex) Remove(ids []int32) { ix.idx.Remove(ids) }

// IndexOf returns the index of the live tuple equal to t, or -1.
func (ix *JIndex) IndexOf(t data.Tuple) int {
	if ix.idx != nil {
		return ix.idx.IndexOf(t)
	}
	for j, u := range ix.Tuples {
		if u.Equal(t) {
			return j
		}
	}
	return -1
}

// Len returns the number of indexed slots, tombstoned ones included
// (dense per-slot state is sized by it).
func (ix *JIndex) Len() int { return len(ix.Tuples) }

// Live reports whether slot j holds a live (non-removed) tuple.
func (ix *JIndex) Live(j int) bool {
	if ix.idx != nil {
		return ix.idx.Live(j)
	}
	return j >= 0 && j < len(ix.Tuples)
}

// NumLive returns the number of live target tuples.
func (ix *JIndex) NumLive() int {
	if ix.idx != nil {
		return ix.idx.NumLive()
	}
	return len(ix.Tuples)
}

// CoverPair is one sparse covers entry: covers(θ, Tuples[J]) = Cov.
type CoverPair struct {
	J   int32
	Cov float64
}

// Analysis holds the Eq. (9) evidence for one candidate tgd.
type Analysis struct {
	// TGDIndex is the candidate's index in the analysed mapping.
	TGDIndex int
	// Size is the tgd's size measure (atoms + existential variables).
	Size int
	// Pairs holds the non-zero covers(θ, t) values, sorted by J tuple
	// index ascending; absent indices have coverage 0.
	Pairs []CoverPair
	// Errors is Σ_{t′ ∈ K_θ} creates(θ, t′): the number of distinct
	// chase tuples with no homomorphic image in J.
	Errors float64
	// KTuples is |K_θ| (distinct tuples).
	KTuples int
	// Firings is the number of chase blocks.
	Firings int
}

// TotalCoverage returns Σ_t covers(θ, t), a rough utility measure.
func (a *Analysis) TotalCoverage() float64 {
	s := 0.0
	for _, pr := range a.Pairs {
		s += pr.Cov
	}
	return s
}

// PairsFromMap converts a j→covers map to the sorted sparse form;
// zero entries are dropped. Used by the reference path and tests.
func PairsFromMap(m map[int]float64) []CoverPair {
	pairs := make([]CoverPair, 0, len(m))
	//lint:commutative collect-then-sort: pairs are sorted by J below before use
	for j, c := range m {
		if c > 0 {
			pairs = append(pairs, CoverPair{J: int32(j), Cov: c})
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].J < pairs[b].J })
	return pairs
}

// AnalyzeN computes the Analysis of every candidate against the data
// example (I, J). jidx must index J. Candidates are analysed in
// parallel (they are independent) by at most workers goroutines: 1
// forces serial analysis, 0 or negative means GOMAXPROCS. The result
// order matches the candidate order, so output is deterministic.
//
// A cold analysis keeps no per-block state: covers(θ, t) is a maximum
// over blocks and their matches, so every match is folded straight
// into its candidate's row, in any order.
func AnalyzeN(I *data.Instance, jidx *JIndex, candidates tgd.Mapping, opts Options, workers int) []Analysis {
	out := make([]Analysis, len(candidates))
	runWorkers(jidx, len(candidates), workers, func(w *analyzeWorker, i int) {
		out[i] = w.analyzeOne(i, candidates[i], I, opts, nil)
	})
	return out
}

// runWorkers executes fn(w, i) for every i in [0, n) on a pool of
// `workers` fresh analyzeWorkers over jidx (≤ 0 means GOMAXPROCS,
// capped at n); the calling goroutine is one of them, so a single
// worker runs inline. Workers claim items from a shared counter and
// share only the read-only index. AnalyzeN, the cold fan-out, is its
// one caller; a tracker's build and mutations run serially on the
// tracker's own worker instead. A panic in fn stops the other workers
// claiming items and is re-raised on the calling goroutine once every
// worker has stopped, instead of killing the process from a pool
// goroutine.
func runWorkers(jidx *JIndex, n, workers int, fn func(w *analyzeWorker, i int)) {
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		w := newAnalyzeWorker(jidx)
		for i := 0; i < n; i++ {
			fn(w, i)
		}
		return
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		panicMu  sync.Mutex
		panicked any
	)
	work := func(w *analyzeWorker) {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				next.Store(int64(n)) // no further items
				panicMu.Lock()
				if panicked == nil {
					panicked = r
				}
				panicMu.Unlock()
			}
		}()
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(w, i)
		}
	}
	wg.Add(workers)
	for wk := 1; wk < workers; wk++ {
		go work(newAnalyzeWorker(jidx))
	}
	work(newAnalyzeWorker(jidx))
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// analyzeWorker bundles one worker's searcher and dense accumulation
// scratch: the candidate row acc and the block row blk of the tracked
// paths.
type analyzeWorker struct {
	index    *data.Index
	searcher *data.Searcher
	acc, blk rowAcc
	keyBuf   data.BlockKeyBuf
	nulls    blockNulls
	// fresh marks the head atoms of the candidate being analysed that
	// hold an existential variable; seen holds the keys of its chase
	// tuples of the other atoms, and tupleKey is seen's probe buffer.
	fresh    []bool
	seen     map[string]struct{}
	tupleKey []byte

	// opts and row parametrise emit, the worker's one match callback,
	// for the enumeration in progress: emit folds each match into row.
	opts Options
	row  *rowAcc
	emit func(*data.IndexedMatch) bool
}

func newAnalyzeWorker(jidx *JIndex) *analyzeWorker {
	w := &analyzeWorker{
		index:    jidx.idx,
		searcher: data.NewSearcher(jidx.idx),
		acc:      newRowAcc(jidx.Len()),
		blk:      newRowAcc(jidx.Len()),
		seen:     make(map[string]struct{}),
	}
	w.emit = w.addMatch
	return w
}

// fit grows the worker's rows to span nj target ids: a tracker keeps
// its worker across mutations, and appends grow the target.
func (w *analyzeWorker) fit(nj int) {
	w.acc.fit(nj)
	w.blk.fit(nj)
}

// analyzeOne computes one candidate's Analysis. With a nil tracker
// (a cold fold) every block's matches are folded straight into the
// candidate row: no block is keyed, looked up or kept. A non-nil
// tracker tr additionally records the candidate's blocks —
// deduplicated through tr's memo — and its error and embedded chase
// tuples, the streaming state of BuildTracker (delta.go); the analysis
// itself is identical either way.
func (w *analyzeWorker) analyzeOne(index int, d *tgd.TGD, I *data.Instance, opts Options, tr *Tracker) Analysis {
	an := Analysis{TGDIndex: index, Size: d.Size()}
	clear(w.seen)
	w.markFresh(d)
	chase.Each(I, tgd.Mapping{d}, nil, func(b chase.Block) {
		an.Firings++
		block := b.Tuples
		var tb *trackedBlock
		// searched: the searcher's candidate sets are block's, so the
		// creates check reads them instead of probing the index again.
		searched := true
		if tr == nil {
			w.enumerate(block, &w.acc, opts)
		} else {
			// The tracker keeps the block's tuples.
			block = data.CloneTuples(block)
			tb, searched = w.blockContrib(tr.memo, block, opts)
			tr.candBlocks[index] = append(tr.candBlocks[index], tb)
			w.acc.addPairs(tb.pairs)
		}
		for k, t := range block {
			if !w.newChaseTuple(block, k) {
				continue
			}
			an.KTuples++
			embeds := false
			if searched {
				embeds = w.searcher.TupleEmbeds(k, t)
			} else {
				embeds = w.index.Embeds(t, 0)
			}
			if !embeds {
				an.Errors++
				if tr != nil {
					tr.errTuples[index] = append(tr.errTuples[index], chaseTuple{t, tb})
				}
			} else if tr != nil {
				// Embedded chase tuples are retained too: target removals
				// can take their image away, turning them back into
				// errors, and the per-candidate multiplicity cannot be
				// reconstructed from the canonically-deduped blocks.
				tr.okTuples[index] = append(tr.okTuples[index], chaseTuple{t, tb})
			}
		}
	})
	an.Pairs = w.acc.drain(nil)
	return an
}

// markFresh records which head atoms of d hold an existential
// variable (see newChaseTuple).
func (w *analyzeWorker) markFresh(d *tgd.TGD) {
	vars := d.BodyVars()
	w.fresh = w.fresh[:0]
	for _, a := range d.Head {
		fresh := false
		for _, term := range a.Args {
			fresh = fresh || !term.IsConst && !slices.Contains(vars, term.Name)
		}
		w.fresh = append(w.fresh, fresh)
	}
}

// newChaseTuple reports whether tuple k of block, a chase block of the
// candidate being analysed, is one the candidate has not produced
// before: K_θ is a set, and each distinct chase tuple counts once. A
// tuple of an atom with an existential variable holds a null minted by
// this firing, so it can only repeat a tuple of its own block, which a
// pairwise comparison finds; only the tuples of existential-free atoms
// can recur across firings, and only they are keyed into seen.
func (w *analyzeWorker) newChaseTuple(block []data.Tuple, k int) bool {
	t := block[k]
	if w.fresh[k] {
		for _, u := range block[:k] {
			if u.Equal(t) {
				return false
			}
		}
		return true
	}
	w.tupleKey = t.AppendKey(w.tupleKey[:0])
	if _, dup := w.seen[string(w.tupleKey)]; dup {
		return false
	}
	w.seen[string(w.tupleKey)] = struct{}{}
	return true
}

// blockContrib returns the retained block of block — its per-block
// evidence, the maximum coverage degree each J tuple receives from any
// partial homomorphism of it, with block as the representative the
// streaming Tracker re-enumerates — shared through the tracker's memo
// by canonical form: equal blocks up to null renaming contribute
// identically, whichever candidate fired them. It reports whether it
// searched block, rather than finding it in the memo. The caller gives
// block away.
func (w *analyzeWorker) blockContrib(memo map[string]*trackedBlock, block []data.Tuple, opts Options) (*trackedBlock, bool) {
	key := w.keyBuf.Key(block)
	if tb := memo[string(key)]; tb != nil {
		return tb, false
	}
	tb := &trackedBlock{key: string(key), tuples: block}
	tb.pairs, tb.homs = w.enumerateBlockPairs(block, opts)
	memo[tb.key] = tb
	return tb, true
}

// enumerate runs the partial-homomorphism enumeration of one block
// against the searcher's index, folding every match into row, and
// returns the number of matches enumerated.
func (w *analyzeWorker) enumerate(block []data.Tuple, row *rowAcc, opts Options) int {
	w.use(opts, row)
	w.nulls.reset(block)
	return w.searcher.EnumeratePartialHoms(block, opts.HomLimit, w.emit)
}

// enumerateBlockPairs enumerates one block on its own and returns the
// block's cover contribution (max degree per J tuple, sparse and
// sorted) and the number of matches enumerated.
func (w *analyzeWorker) enumerateBlockPairs(block []data.Tuple, opts Options) ([]CoverPair, int) {
	homs := w.enumerate(block, &w.blk, opts)
	return w.blk.drain(nil), homs
}

// homLimit returns the effective per-block hom limit of opts.
func homLimit(opts Options) int {
	if opts.HomLimit <= 0 {
		return data.DefaultHomLimit
	}
	return opts.HomLimit
}

// appendedBlockPairs returns tb's contribution and match count once
// the ids from base on were appended. A complete enumeration's
// contribution is a maximum over its matches, so while the cached one
// and the grown one both stay under the hom limit it is the cached row
// max-merged with the matches that reach an appended id — the cached
// row itself when they raise no degree. A block at the limit is
// enumerated afresh, since a truncated maximum depends on which
// matches come first.
func (w *analyzeWorker) appendedBlockPairs(tb *trackedBlock, base int32, opts Options) ([]CoverPair, int) {
	limit := homLimit(opts)
	if tb.homs < limit {
		w.use(opts, &w.blk)
		w.nulls.reset(tb.tuples)
		homs := tb.homs + w.searcher.EnumerateNewHoms(tb.tuples, base, limit-tb.homs, w.emit)
		if homs < limit {
			return w.blk.drain(tb.pairs), homs
		}
		w.blk.reset() // discard the partial row
	}
	return w.enumerateBlockPairs(tb.tuples, opts)
}

// use parametrises emit and the searcher for one enumeration folding
// into row. Under the corroboration rule a block tuple the search
// leaves inert (see data.Searcher.CollapseInert) scores 0 and
// corroborates nothing, so the searcher counts its images instead of
// emitting each; without the rule (the E8 ablation) such a tuple scores
// 1, and every image is emitted.
func (w *analyzeWorker) use(opts Options, row *rowAcc) {
	w.opts = opts
	w.row = row
	w.searcher.CollapseInert = opts.Corroboration
}

// addMatch folds one partial homomorphism of the block being
// enumerated into the worker's current row.
func (w *analyzeWorker) addMatch(m *data.IndexedMatch) bool {
	w.nulls.setMapped(m.Mapped)
	for i, mapped := range m.Mapped {
		if !mapped {
			continue
		}
		if deg := w.nulls.degree(i, w.opts.Corroboration); deg > 0 {
			w.row.add(m.Image[i], deg)
		}
	}
	return true
}

// rowAcc is a dense max-coverage accumulator over the target ids with
// its touched list, so draining it never clears a full |J| array.
type rowAcc struct {
	deg   []float64
	touch []int32
}

func newRowAcc(nj int) rowAcc { return rowAcc{deg: make([]float64, nj)} }

// fit grows the drained row to span nj target ids.
func (r *rowAcc) fit(nj int) {
	if n := nj - len(r.deg); n > 0 {
		r.deg = append(r.deg, make([]float64, n)...)
	}
}

// add raises id j's degree to deg if deg is higher.
func (r *rowAcc) add(j int32, deg float64) {
	if deg > r.deg[j] {
		if r.deg[j] == 0 {
			r.touch = append(r.touch, j)
		}
		r.deg[j] = deg
	}
}

// addPairs max-merges sparse pairs into the row.
func (r *rowAcc) addPairs(pairs []CoverPair) {
	for _, pr := range pairs {
		r.add(pr.J, pr.Cov)
	}
}

// drain returns the row max-merged onto the sorted sparse pairs onto
// (nil for none), as sorted sparse pairs, and resets the row. Only the
// row's ids are sorted, and an empty row returns onto itself, so
// merging a few raised degrees into a long row costs no more than a
// copy of it, and merging none costs nothing.
func (r *rowAcc) drain(onto []CoverPair) []CoverPair {
	if len(r.touch) == 0 && onto != nil {
		return onto
	}
	slices.Sort(r.touch)
	out := make([]CoverPair, 0, len(onto)+len(r.touch))
	k := 0
	for _, j := range r.touch {
		for ; k < len(onto) && onto[k].J < j; k++ {
			out = append(out, onto[k])
		}
		cov := r.deg[j]
		if k < len(onto) && onto[k].J == j {
			cov = max(cov, onto[k].Cov)
			k++
		}
		out = append(out, CoverPair{J: j, Cov: cov})
		r.deg[j] = 0
	}
	out = append(out, onto[k:]...)
	r.touch = r.touch[:0]
	return out
}

// reset empties the row.
func (r *rowAcc) reset() {
	for _, j := range r.touch {
		r.deg[j] = 0
	}
	r.touch = r.touch[:0]
}

// blockNulls is the corroboration structure of one block, computed
// once per block: for every null label, the set of block tuples
// holding it, as a multi-word bitmask. Under a match, a null position
// of tuple i is corroborated iff its label's holders, intersected with
// the mapped tuples and without i itself, are not empty — one AND per
// mask word instead of comparing label strings across the block.
type blockNulls struct {
	words int
	lbls  []string
	// argLbl holds each argument's label id (-1 for a constant), the
	// block's tuples back to back; tuple i's arguments are
	// argLbl[argOff[i]:argOff[i+1]].
	argLbl []int32
	argOff []int
	// holders[l*words:(l+1)*words] is the mask of label l's tuples;
	// mapped is the mask of the current match's mapped tuples.
	holders []uint64
	mapped  []uint64
}

// reset computes the label masks of block.
func (bn *blockNulls) reset(block []data.Tuple) {
	bn.words = (len(block) + 63) / 64
	bn.lbls = bn.lbls[:0]
	bn.argLbl = bn.argLbl[:0]
	bn.argOff = append(bn.argOff[:0], 0)
	for _, t := range block {
		for _, a := range t.Args {
			l := int32(-1)
			if a.IsNull() {
				l = bn.label(a.Name())
			}
			bn.argLbl = append(bn.argLbl, l)
		}
		bn.argOff = append(bn.argOff, len(bn.argLbl))
	}
	bn.holders = resizeMask(bn.holders, len(bn.lbls)*bn.words)
	bn.mapped = resizeMask(bn.mapped, bn.words)
	for i := range block {
		for _, l := range bn.argLbl[bn.argOff[i]:bn.argOff[i+1]] {
			if l >= 0 {
				bn.holders[int(l)*bn.words+i>>6] |= 1 << (i & 63)
			}
		}
	}
}

// label returns the id of a null label, numbering it on first sight.
func (bn *blockNulls) label(name string) int32 {
	for l, n := range bn.lbls {
		if n == name {
			return int32(l)
		}
	}
	bn.lbls = append(bn.lbls, name)
	return int32(len(bn.lbls) - 1)
}

// resizeMask returns a zeroed mask of n words, reusing m's array.
func resizeMask(m []uint64, n int) []uint64 {
	m = slices.Grow(m[:0], n)[:n]
	clear(m)
	return m
}

// setMapped loads the mapped tuples of a match.
func (bn *blockNulls) setMapped(mapped []bool) {
	clear(bn.mapped)
	for i, ok := range mapped {
		if ok {
			bn.mapped[i>>6] |= 1 << (i & 63)
		}
	}
}

// degree is the coverage degree of block tuple i under the loaded
// match: the fraction of its positions that are covered. Constant
// positions always count; null positions count iff corroborated, or
// always when corroboration is off (the E8 ablation).
func (bn *blockNulls) degree(i int, corroboration bool) float64 {
	args := bn.argLbl[bn.argOff[i]:bn.argOff[i+1]]
	if len(args) == 0 {
		return 0
	}
	covered := 0
	for _, l := range args {
		if l < 0 || !corroboration || bn.corroborated(l, i) {
			covered++
		}
	}
	return float64(covered) / float64(len(args))
}

// corroborated reports whether null label l occurs in a mapped tuple
// of the block other than i.
func (bn *blockNulls) corroborated(l int32, i int) bool {
	holders := bn.holders[int(l)*bn.words : (int(l)+1)*bn.words]
	for w, h := range holders {
		h &= bn.mapped[w]
		if w == i>>6 {
			h &^= 1 << (i & 63)
		}
		if h != 0 {
			return true
		}
	}
	return false
}

// CertainUnexplained returns the indices of live J tuples not covered
// (to any positive degree) by any candidate; tombstoned slots are
// skipped. Their Eq. (9) contribution is
// the constant |certain|·w₁ regardless of the selection, so solvers
// may exclude them from the variable part of the objective
// (cf. Section III-C of the paper).
//
//lint:testonly shard tests check split results against it
func CertainUnexplained(jidx *JIndex, analyses []Analysis) []int {
	coveredBySome := make([]bool, jidx.Len())
	for i := range analyses {
		for _, pr := range analyses[i].Pairs {
			coveredBySome[pr.J] = true
		}
	}
	var out []int
	for j, c := range coveredBySome {
		if !c && jidx.Live(j) {
			out = append(out, j)
		}
	}
	return out
}

// Incidence is the inverted evidence: for every J tuple, the
// candidates covering it with their degrees, in candidate order
// (CSR layout). Solvers use it to rescan only the candidates incident
// to a tuple when the selection changes.
type Incidence struct {
	starts []int32
	cand   []int32
	cov    []float64
}

// BuildIncidence inverts the analyses over nj tuples.
func BuildIncidence(nj int, analyses []Analysis) *Incidence {
	starts := make([]int32, nj+1)
	total := 0
	for i := range analyses {
		for _, pr := range analyses[i].Pairs {
			starts[pr.J+1]++
			total++
		}
	}
	for j := 0; j < nj; j++ {
		starts[j+1] += starts[j]
	}
	inc := &Incidence{
		starts: starts,
		cand:   make([]int32, total),
		cov:    make([]float64, total),
	}
	fill := make([]int32, nj)
	for i := range analyses {
		for _, pr := range analyses[i].Pairs {
			k := starts[pr.J] + fill[pr.J]
			inc.cand[k] = int32(i)
			inc.cov[k] = pr.Cov
			fill[pr.J]++
		}
	}
	return inc
}

// Grow extends the incidence to span nj tuples, giving the appended
// tuples empty rows in O(new tuples). It is the fast path for target
// appends that changed no candidate's coverage (cover.TrackerDelta
// with an empty PairsChanged); appends that did change rows need a
// BuildIncidence rebuild — a memory pass dwarfed by the dirty-block
// re-enumeration that caused it.
func (inc *Incidence) Grow(nj int) {
	last := inc.starts[len(inc.starts)-1]
	for len(inc.starts) < nj+1 {
		inc.starts = append(inc.starts, last)
	}
}

// Row returns the candidates covering J tuple j and their degrees,
// sorted by candidate index ascending (shared slices; do not mutate).
func (inc *Incidence) Row(j int) ([]int32, []float64) {
	lo, hi := inc.starts[j], inc.starts[j+1]
	return inc.cand[lo:hi], inc.cov[lo:hi]
}

// NumTuples returns the number of J tuples the incidence spans.
func (inc *Incidence) NumTuples() int { return len(inc.starts) - 1 }
