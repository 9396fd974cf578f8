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
