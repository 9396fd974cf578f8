package cover

// Explanation provenance: not just *how much* of J a candidate
// explains (the Covers vector), but *why* — which chase firing maps
// onto which target tuple under which homomorphism. This is the
// debugging surface for mapping selection: given a selection, report
// the best witness per explained tuple, the residual unexplained
// tuples, and the erroneous chase tuples each selected candidate
// introduces.

import (
	"fmt"
	"sort"
	"strings"

	"schemamap/internal/chase"
	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// Witness is one explanation of a target tuple: a chase tuple of a
// candidate, the firing it came from, and the null assignment mapping
// it onto the J tuple.
type Witness struct {
	// TGDIndex identifies the explaining candidate.
	TGDIndex int
	// Degree is the coverage fraction achieved by this witness.
	Degree float64
	// ChaseTuple is the K_θ tuple mapped onto the target tuple.
	ChaseTuple data.Tuple
	// Binding is the firing's body binding (variable → source value).
	Binding map[string]data.Value
	// NullImage maps the block's nulls to target values under the
	// witnessing homomorphism.
	NullImage map[string]data.Value
}

// String renders the witness compactly.
func (w Witness) String() string {
	var nulls []string
	//lint:commutative collect-then-sort: the rendered fragments are sorted before joining
	for k, v := range w.NullImage {
		nulls = append(nulls, fmt.Sprintf("%s→%s", k, v.Name()))
	}
	sort.Strings(nulls)
	s := fmt.Sprintf("θ[%d] via %v (degree %.3g)", w.TGDIndex, w.ChaseTuple, w.Degree)
	if len(nulls) > 0 {
		s += " with " + strings.Join(nulls, ", ")
	}
	return s
}

// Report is the full explanation of a selection against (I, J).
type Report struct {
	// Explained maps J tuple indices to their best witness among the
	// selected candidates.
	Explained map[int]Witness
	// Unexplained lists live J tuple indices with zero coverage under
	// the selection.
	Unexplained []int
	// Partial lists live J tuple indices explained only partially
	// (0 < degree < 1).
	Partial []int
	// Errors lists, per selected candidate index, the distinct chase
	// tuples with no homomorphic image among the live J tuples.
	Errors map[int][]data.Tuple
	// JIndex resolves tuple indices.
	JIndex *JIndex
}

// Explain computes the provenance report of the selected candidates
// against the target that jidx indexes (IndexJ, not a view). It chases
// each selected candidate over I and enumerates every block's partial
// homomorphisms with a worker's data.Searcher, set up as AnalyzeN sets
// it up (hom limit, corroboration, inert-leaf counting), so a witness's
// Degree is the candidate's covers value for its tuple. Ties go to the
// lowest candidate index, then the earliest chase block, then the first
// match that reaches the tuple's maximum degree. A witness's NullImage
// holds the images of the nulls of the block tuples its match maps; an
// inert leaf the search counts rather than maps (see
// data.Searcher.CollapseInert) contributes none. Errors are probed
// against the live target tuples, and Unexplained and Partial list
// live tuples only.
func Explain(I *data.Instance, jidx *JIndex, candidates tgd.Mapping, selected []bool, opts Options) *Report {
	rep := &Report{
		Explained: make(map[int]Witness),
		Errors:    make(map[int][]data.Tuple),
		JIndex:    jidx,
	}
	w := newAnalyzeWorker(jidx)
	w.use(opts, nil)
	// best[j] is the match that first reached tuple j's maximum degree
	// so far; the witness maps are built from it once, at the end.
	best := make([]bestMatch, jidx.Len())
	chased, vars := make([]*chase.Result, len(candidates)), make([][]string, len(candidates))
	var ci, bi int
	emit := func(m *data.IndexedMatch) bool {
		w.nulls.setMapped(m.Mapped)
		for i, mapped := range m.Mapped {
			if !mapped {
				continue
			}
			b := &best[m.Image[i]]
			if deg := w.nulls.degree(i, opts.Corroboration); deg > b.degree {
				b.degree, b.cand, b.block, b.tuple = deg, ci, bi, i
				b.mapped, b.image = append(b.mapped[:0], m.Mapped...), append(b.image[:0], m.Image...)
			}
		}
		return true
	}
	for ci = range selected {
		if !selected[ci] {
			continue
		}
		chased[ci], vars[ci] = chase.ChaseOne(I, candidates[ci], nil), candidates[ci].BodyVars()
		res := chased[ci]
		for bi = range res.Blocks {
			w.nulls.reset(res.Blocks[bi].Tuples)
			w.searcher.EnumeratePartialHoms(res.Blocks[bi].Tuples, opts.HomLimit, emit)
		}
		for _, t := range res.Instance.All() {
			if !w.index.Embeds(t, 0) {
				rep.Errors[ci] = append(rep.Errors[ci], t)
			}
		}
	}
	for j := range best {
		b := &best[j]
		switch {
		case !jidx.Live(j):
		case b.degree == 0:
			rep.Unexplained = append(rep.Unexplained, j)
		default:
			blk := &chased[b.cand].Blocks[b.block]
			rep.Explained[j] = Witness{
				TGDIndex:   b.cand,
				Degree:     b.degree,
				ChaseTuple: blk.Tuples[b.tuple],
				Binding:    blk.Binding(vars[b.cand]),
				NullImage:  b.nullImage(blk.Tuples, jidx.Tuples),
			}
			if b.degree < 1 {
				rep.Partial = append(rep.Partial, j)
			}
		}
	}
	return rep
}

// bestMatch is the running witness of one target tuple: the degree,
// the candidate, chase block and block tuple that reached it, and the
// match (see data.IndexedMatch).
type bestMatch struct {
	degree             float64
	cand, block, tuple int
	mapped             []bool
	image              []int32
}

// nullImage maps the nulls of the block tuples the match maps to the
// values at their positions in the tuples' images.
func (b *bestMatch) nullImage(block, target []data.Tuple) map[string]data.Value {
	ni := make(map[string]data.Value)
	for k, t := range block {
		for p, a := range t.Args {
			if b.mapped[k] && a.IsNull() {
				ni[a.Name()] = target[b.image[k]].Args[p]
			}
		}
	}
	return ni
}

// Summary renders a human-readable digest: counts plus up to limit
// example tuples per category.
func (r *Report) Summary(limit int) string {
	if limit <= 0 {
		limit = 5
	}
	var b strings.Builder
	full := len(r.Explained) - len(r.Partial)
	fmt.Fprintf(&b, "explained %d/%d target tuples (%d fully, %d partially)\n",
		len(r.Explained), r.JIndex.NumLive(), full, len(r.Partial))
	show := func(label string, idxs []int) {
		if len(idxs) == 0 {
			return
		}
		fmt.Fprintf(&b, "%s (%d):\n", label, len(idxs))
		for i, j := range idxs {
			if i >= limit {
				fmt.Fprintf(&b, "  … and %d more\n", len(idxs)-limit)
				break
			}
			if w, ok := r.Explained[j]; ok {
				fmt.Fprintf(&b, "  %v ← %v\n", r.JIndex.Tuples[j], w)
			} else {
				fmt.Fprintf(&b, "  %v\n", r.JIndex.Tuples[j])
			}
		}
	}
	show("partially explained", r.Partial)
	show("unexplained", r.Unexplained)
	errTotal := 0
	for _, ts := range r.Errors {
		errTotal += len(ts)
	}
	if errTotal > 0 {
		fmt.Fprintf(&b, "erroneous chase tuples (%d):\n", errTotal)
		var cands []int
		for ci := range r.Errors {
			cands = append(cands, ci)
		}
		sort.Ints(cands)
		shown := 0
		for _, ci := range cands {
			for _, t := range r.Errors[ci] {
				if shown >= limit {
					fmt.Fprintf(&b, "  … and %d more\n", errTotal-limit)
					return b.String()
				}
				fmt.Fprintf(&b, "  θ[%d] creates %v ∉ J\n", ci, t)
				shown++
			}
		}
	}
	return b.String()
}
