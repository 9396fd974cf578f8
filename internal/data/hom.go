package data

// This file is the reference homomorphism search: a direct scan from
// a *block* of tuples (tuples sharing labelled nulls, produced by one
// tgd firing) into an instance. A homomorphism preserves constants and
// maps each null to one value consistently across the block. Partial
// homomorphisms map only a subset of the block's tuples; they are what
// the Eq. (9) covers measure maximises over.
//
// EnumeratePartialHoms and TupleEmbeds are reference-only: no
// production path calls them. The indexed Searcher (index.go) is the
// one engine that analysis, explanation, core computation and
// implication run on; these scans are what the differential tests,
// the fuzz target and cover.AnalyzeReference pin it against.

// BlockMatch describes one partial homomorphism from a block into an
// instance. Image[i] is the image of block tuple i, valid only when
// Mapped[i] is true.
type BlockMatch struct {
	Mapped []bool
	Image  []Tuple
}

// homSearch carries state for the recursive enumeration.
type homSearch struct {
	block   []Tuple
	target  *Instance
	limit   int
	emitted int
	emit    func(BlockMatch) bool // return false to stop early
	stopped bool

	mapped []bool
	image  []Tuple
	nulls  map[string]Value
}

// DefaultHomLimit is the number of matches a partial-homomorphism
// enumeration emits at most when its limit is not positive.
const DefaultHomLimit = 4096

// EnumeratePartialHoms enumerates partial homomorphisms from block
// into target, calling emit for each complete assignment (every block
// tuple either mapped to a target tuple or skipped). Null images are
// consistent across mapped tuples; constants are preserved. At most
// limit assignments are emitted (limit <= 0 means a default cap).
// emit may return false to stop the enumeration early.
//
// The enumeration includes non-maximal matches; callers computing a
// maximum over matches are unaffected, since any score monotone in the
// mapped set is maximised at a maximal match that is also enumerated.
func EnumeratePartialHoms(block []Tuple, target *Instance, limit int, emit func(BlockMatch) bool) {
	if limit <= 0 {
		limit = DefaultHomLimit
	}
	// Process constant-rich tuples first so that nulls are bound early
	// and all-null tuples (e.g. an N-to-M link relation) see a small
	// candidate set. Results are reported in the original order.
	order := make([]int, len(block))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && constants(block[order[j]]) > constants(block[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	reordered := make([]Tuple, len(block))
	for i, idx := range order {
		reordered[i] = block[idx]
	}
	wrapped := emit
	if len(block) > 1 {
		wrapped = func(m BlockMatch) bool {
			orig := BlockMatch{Mapped: make([]bool, len(block)), Image: make([]Tuple, len(block))}
			for i, idx := range order {
				orig.Mapped[idx] = m.Mapped[i]
				orig.Image[idx] = m.Image[i]
			}
			return emit(orig)
		}
	}
	s := &homSearch{
		block:  reordered,
		target: target,
		limit:  limit,
		emit:   wrapped,
		mapped: make([]bool, len(block)),
		image:  make([]Tuple, len(block)),
		nulls:  make(map[string]Value),
	}
	s.rec(0)
}

func (s *homSearch) rec(i int) {
	if s.stopped || s.emitted >= s.limit {
		return
	}
	if i == len(s.block) {
		s.emitted++
		m := BlockMatch{Mapped: append([]bool(nil), s.mapped...), Image: append([]Tuple(nil), s.image...)}
		if !s.emit(m) {
			s.stopped = true
		}
		return
	}
	t := s.block[i]
	// Option 1: map tuple i to each consistent candidate.
	for _, cand := range s.target.Tuples(t.Rel) {
		if add, ok := s.consistent(t, cand); ok {
			for _, lbl := range add {
				s.nulls[lbl] = valueAt(t, cand, lbl)
			}
			s.mapped[i] = true
			s.image[i] = cand
			s.rec(i + 1)
			s.mapped[i] = false
			for _, lbl := range add {
				delete(s.nulls, lbl)
			}
			if s.stopped || s.emitted >= s.limit {
				return
			}
		}
	}
	// Option 2: skip tuple i.
	s.rec(i + 1)
}

// consistent checks whether t can map to cand under the current null
// assignment; it returns the labels of nulls that would be newly bound.
func (s *homSearch) consistent(t, cand Tuple) (newNulls []string, ok bool) {
	if len(t.Args) != len(cand.Args) {
		return nil, false
	}
	// Tentative bindings for nulls bound within this tuple.
	local := make(map[string]Value)
	for p, a := range t.Args {
		c := cand.Args[p]
		if !a.IsNull() {
			if a != c {
				return nil, false
			}
			continue
		}
		lbl := a.Name()
		if v, bound := s.nulls[lbl]; bound {
			if v != c {
				return nil, false
			}
			continue
		}
		if v, bound := local[lbl]; bound {
			if v != c {
				return nil, false
			}
			continue
		}
		local[lbl] = c
	}
	for lbl := range local {
		newNulls = append(newNulls, lbl)
	}
	return newNulls, true
}

// valueAt returns the image value of the null labelled lbl as induced
// by mapping t onto cand (first occurrence wins; consistency was
// already checked).
func valueAt(t, cand Tuple, lbl string) Value {
	for p, a := range t.Args {
		if a.IsNull() && a.Name() == lbl {
			return cand.Args[p]
		}
	}
	return Value{}
}

// TupleEmbeds reports whether the single tuple t has a homomorphic
// image in target (some target tuple agreeing on all constant
// positions, nulls free but consistent within t), by scanning t's
// relation: the reference of Index.Embeds.
func TupleEmbeds(t Tuple, target *Instance) bool {
	s := &homSearch{nulls: make(map[string]Value)}
	for _, cand := range target.Tuples(t.Rel) {
		if _, ok := s.consistent(t, cand); ok {
			return true
		}
	}
	return false
}
