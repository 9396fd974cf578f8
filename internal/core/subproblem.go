package core

import (
	"sort"

	"schemamap/internal/cover"
	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// Subproblem extracts a prepared sub-instance of the problem spanning
// the given candidate and target-tuple indices: candidate k of the
// subproblem is parent candidate candIdx[k], and target tuple k is
// parent JIndex tuple tupleIdx[k]. tupleIdx must be strictly
// ascending. The prepared evidence is *sliced*, not recomputed — no
// chase or homomorphism search runs.
//
// The subproblem is a read-only view over the parent's prepared
// target: its JIndex holds the parent's tuple values for tupleIdx and
// nothing else — no posting lists, tombstones or target instance — so
// building one costs O(|tupleIdx| + evidence touched). Its J field is
// nil, and its lifecycle mutators (AppendTarget, RemoveTarget,
// ApplySourceDelta, AddCandidates, RemoveCandidates) return an error
// and change nothing. Fork and ForkDetached return an owned, mutable
// problem over a copy of its tuples. JIndex().IndexOf on a view scans
// its tuples. Solvers need none of these.
//
// The intended caller is connected-component sharding
// (internal/shard): when the index sets are closed under the evidence
// — every CoverPair of a chosen candidate lands on a chosen tuple —
// the subproblem's objective decomposes the parent's exactly (see
// Objective). Pairs pointing outside tupleIdx are a programming error
// and panic, because silently dropping evidence would corrupt every
// solver downstream.
//
// The subproblem shares the parent's source instance, tgd pointers and
// (immutable) tuple values, and is born prepared: Prepare on it is a
// no-op, and solvers can run on it immediately and concurrently. It is
// detached from the parent — a later mutation of the parent does not
// affect it.
func (p *Problem) Subproblem(candIdx, tupleIdx []int) *Problem {
	p.Prepare()
	p.mustFresh()

	tuples := make([]data.Tuple, len(tupleIdx))
	for k, j := range tupleIdx {
		if k > 0 && j <= tupleIdx[k-1] {
			panic("core: Subproblem tuple indices not strictly ascending")
		}
		tuples[k] = p.jidx.Tuples[j]
	}

	// Remap every pair's parent tuple id to its position in tupleIdx.
	// Parent pairs ascend by J, so the remapped pairs do too and each
	// binary search starts where the previous one ended.
	cands := make(tgd.Mapping, len(candIdx))
	analyses := make([]cover.Analysis, len(candIdx))
	for k, ci := range candIdx {
		cands[k] = p.Candidates[ci]
		a := p.analyses[ci]
		pairs := make([]cover.CoverPair, len(a.Pairs))
		lo := 0
		for i, pr := range a.Pairs {
			j := int(pr.J)
			lo += sort.SearchInts(tupleIdx[lo:], j)
			if lo == len(tupleIdx) || tupleIdx[lo] != j {
				panic("core: Subproblem index sets not evidence-closed: candidate covers a tuple outside the shard")
			}
			pairs[i] = cover.CoverPair{J: int32(lo), Cov: pr.Cov}
		}
		a.TGDIndex = k
		a.Pairs = pairs
		analyses[k] = a
	}

	sub := &Problem{
		I:            p.I,
		Candidates:   cands,
		Weights:      p.Weights,
		CoverOptions: p.CoverOptions,
	}
	sub.prepareOnce.Do(func() {
		sub.jidx = cover.ViewJ(tuples)
		sub.analyses = analyses
		sub.incidence = cover.BuildIncidence(len(tuples), analyses)
		sub.iVer = sub.I.Version()
		sub.prepared = true
	})
	return sub
}
