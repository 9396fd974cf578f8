package cover

import (
	"schemamap/internal/chase"
	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// This file preserves the original evidence pipeline — scan-based
// homomorphism search over a rebuilt J instance, map-accumulated
// covers — as a reference implementation. It is deliberately naive
// and unoptimised; the differential tests pin AnalyzeN's indexed
// sparse path against it bit for bit.

// AnalyzeReference computes every candidate's Analysis with the
// reference pipeline, serially. Results must equal AnalyzeN's exactly
// (Pairs, Errors, KTuples, Firings), hom limits included.
//
//lint:testonly cover and core differential tests compare the indexed analysis against it
func AnalyzeReference(I *data.Instance, jidx *JIndex, candidates tgd.Mapping, opts Options) []Analysis {
	J := instanceOf(jidx)
	out := make([]Analysis, len(candidates))
	for i, d := range candidates {
		out[i] = analyzeOneReference(i, d, I, J, jidx, opts)
	}
	return out
}

// instanceOf rebuilds the J instance from the index (the reference
// path predates JIndex carrying the posting-list index).
func instanceOf(jidx *JIndex) *data.Instance {
	J := data.NewInstance()
	for _, t := range jidx.Tuples {
		J.Add(t)
	}
	return J
}

func analyzeOneReference(index int, d *tgd.TGD, I, J *data.Instance, jidx *JIndex, opts Options) Analysis {
	res := chase.ChaseOne(I, d, nil)
	covers := make(map[int]float64)
	an := Analysis{
		TGDIndex: index,
		Size:     d.Size(),
		KTuples:  res.Instance.Len(),
		Firings:  len(res.Blocks),
	}
	for bi := range res.Blocks {
		b := &res.Blocks[bi]
		data.EnumeratePartialHoms(b.Tuples, J, opts.HomLimit, func(m data.BlockMatch) bool {
			for i, mapped := range m.Mapped {
				if !mapped {
					continue
				}
				deg := coverageDegree(b.Tuples, i, m.Mapped, opts)
				if deg <= 0 {
					continue
				}
				j := jidx.IndexOf(m.Image[i])
				if j >= 0 && deg > covers[j] {
					covers[j] = deg
				}
			}
			return true
		})
	}
	an.Pairs = PairsFromMap(covers)
	for _, t := range res.Instance.All() {
		if !data.TupleEmbeds(t, J) {
			an.Errors++
		}
	}
	return an
}

// coverageDegree is the label-comparing reference of
// blockNulls.degree: the fraction of positions of block tuple ti that
// are covered under the match whose mapped set is mapped. Constant
// positions always count; null positions count iff corroborated (or
// always, when the corroboration ablation is off).
func coverageDegree(block []data.Tuple, ti int, mapped []bool, opts Options) float64 {
	t := block[ti]
	if len(t.Args) == 0 {
		return 0
	}
	covered := 0
	for _, a := range t.Args {
		if !a.IsNull() {
			covered++
			continue
		}
		if !opts.Corroboration {
			covered++
			continue
		}
		if nullCorroborated(block, ti, mapped, a.Name()) {
			covered++
		}
	}
	return float64(covered) / float64(len(t.Args))
}

// nullCorroborated reports whether the null labelled lbl occurs in
// another *mapped* tuple of the block.
func nullCorroborated(block []data.Tuple, ti int, mapped []bool, lbl string) bool {
	for j, other := range block {
		if j == ti || !mapped[j] {
			continue
		}
		for _, oa := range other.Args {
			if oa.IsNull() && oa.Name() == lbl {
				return true
			}
		}
	}
	return false
}
