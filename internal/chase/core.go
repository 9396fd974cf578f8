package chase

// Core computation for st-tgd chase results. The canonical universal
// solution produced by the naive chase is generally not minimal:
// selecting both θ1: proj→task and θ3: proj→task∧org materialises two
// homomorphically equivalent task tuples that differ only in their
// nulls. The *core* is the smallest universal solution (Fagin,
// Kolaitis, Popa, "Data exchange: getting to the core", TODS 2005);
// for st tgds it can be computed by block retraction: a block whose
// tuples all map homomorphically into the rest of the instance is
// redundant and can be removed.

import (
	"slices"

	"schemamap/internal/data"
)

// Core returns the core of the chase result as a new instance: it
// repeatedly removes blocks that embed homomorphically into the
// remainder of the instance (constants preserved, the block's own
// nulls excluded from the target of the embedding). Tuples without
// nulls are never removed — they are forced by the mapping. Each
// retraction test is a data.Searcher.BlockEmbeds over the posting-list
// index of that remainder, which finds a total embedding however many
// partial matches precede it.
//
// The input result is not modified.
func (r *Result) Core() *data.Instance {
	live := make([]bool, len(r.Blocks))
	for bi := range live {
		live[bi] = true
	}
	// Fixpoint: retract while some block embeds elsewhere. A block
	// with no nulls never retracts (its tuples are forced facts and
	// the embedding would be the identity).
	for changed := true; changed; {
		changed = false
		for bi, b := range r.Blocks {
			if live[bi] && slices.ContainsFunc(b.Tuples, data.Tuple.HasNull) &&
				data.NewSearcher(data.IndexTuples(r.liveWithout(live, b.Tuples))).BlockEmbeds(b.Tuples) {
				live[bi], changed = false, true
			}
		}
	}
	out := data.NewInstance()
	for _, t := range r.liveWithout(live, nil) {
		out.Add(t)
	}
	return out
}

// liveWithout lists the tuples of the live blocks, in block order,
// that hold none of the nulls of block: the retraction target of
// block. A tuple several blocks share is listed once per block, which
// changes no embedding.
func (r *Result) liveWithout(live []bool, block []data.Tuple) []data.Tuple {
	own := make(map[string]bool)
	for _, t := range block {
		for _, lbl := range t.Nulls() {
			own[lbl] = true
		}
	}
	holdsOwn := func(a data.Value) bool { return a.IsNull() && own[a.Name()] }
	var out []data.Tuple
	for bi, b := range r.Blocks {
		for _, t := range b.Tuples {
			if live[bi] && !slices.ContainsFunc(t.Args, holdsOwn) {
				out = append(out, t)
			}
		}
	}
	return out
}
