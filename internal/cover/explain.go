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
	// Unexplained lists J tuple indices with zero coverage under the
	// selection.
	Unexplained []int
	// Partial lists J tuple indices explained only partially
	// (0 < degree < 1).
	Partial []int
	// Errors lists, per selected candidate index, the chase tuples
	// with no homomorphic image in J.
	Errors map[int][]data.Tuple
	// JIndex resolves tuple indices.
	JIndex *JIndex
}

// Explain computes the provenance report of the selected candidates
// against the data example.
func Explain(I, J *data.Instance, candidates tgd.Mapping, selected []bool, opts Options) *Report {
	jidx := IndexJ(J)
	rep := &Report{
		Explained: make(map[int]Witness),
		Errors:    make(map[int][]data.Tuple),
		JIndex:    jidx,
	}
	var nulls blockNulls
	for ci, on := range selected {
		if !on {
			continue
		}
		res := chase.ChaseOne(I, candidates[ci], nil)
		for bi := range res.Blocks {
			b := &res.Blocks[bi]
			nulls.reset(b.Tuples)
			data.EnumeratePartialHoms(b.Tuples, J, opts.HomLimit, func(m data.BlockMatch) bool {
				nulls.setMapped(m.Mapped)
				for i, mapped := range m.Mapped {
					if !mapped {
						continue
					}
					deg := nulls.degree(i, opts.Corroboration)
					if deg <= 0 {
						continue
					}
					j := jidx.IndexOf(m.Image[i])
					if j < 0 {
						continue
					}
					if prev, ok := rep.Explained[j]; !ok || deg > prev.Degree {
						rep.Explained[j] = Witness{
							TGDIndex:   ci,
							Degree:     deg,
							ChaseTuple: b.Tuples[i],
							Binding:    b.Binding(candidates[ci]),
							NullImage:  m.NullImage,
						}
					}
				}
				return true
			})
		}
		for _, t := range res.Instance.All() {
			if !data.TupleEmbeds(t, J) {
				rep.Errors[ci] = append(rep.Errors[ci], t)
			}
		}
	}
	for j := range jidx.Tuples {
		w, ok := rep.Explained[j]
		switch {
		case !ok:
			rep.Unexplained = append(rep.Unexplained, j)
		case w.Degree < 1:
			rep.Partial = append(rep.Partial, j)
		}
	}
	return rep
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
		len(r.Explained), r.JIndex.Len(), full, len(r.Partial))
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
