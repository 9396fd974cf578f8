// Package shard decomposes a mapping-selection problem into the
// connected components of its evidence graph and solves them
// independently.
//
// The Eq. (9) objective is block-separable: the only coupling between
// candidates is through shared target tuples (the per-tuple max in the
// unexplained term), and the only coupling between tuples is through
// shared candidates. Two candidates that cover no common tuple —
// directly or transitively — therefore never interact, and the
// bipartite graph over candidates ∪ tuples whose edges are the
// non-zero covers(θ, t) entries (the cover.Incidence CSR) splits the
// problem exactly: solve each connected component on its own
// subproblem, concatenate the selections, and the merged objective
// equals the unsharded evaluation of the merged selection. Error and
// size terms are candidate-local, so they decompose trivially; tuples
// covered by no candidate contribute the selection-independent
// constant w₁ each (cover.CertainUnexplained).
//
// Split performs the decomposition; Solver wraps any registered solver
// into its sharded variant, routing tiny components to the exact
// exhaustive search and running shards on a bounded worker pool. A
// shard is solved, never mutated: each is a read-only view over the
// parent's evidence, and every sharded solve splits afresh, so no
// decomposition outlives the evidence it was cut from. The package
// registers "sharded-greedy" and "sharded-collective" in the core
// solver registry at init.
//
// ibench scenarios are naturally multi-component — every primitive
// instance uses its own relation namespace — so at the L/XL scales
// this turns one 10⁵–10⁶-tuple problem into thousands of small
// independent ones, which is what makes those scales tractable (see
// the bench throughput trace).
package shard

import (
	"schemamap/internal/core"
)

// Shard is one connected component of a problem's evidence graph,
// extracted as an independently solvable subproblem.
type Shard struct {
	// Problem is the prepared subproblem spanning exactly this
	// component's candidates and tuples; solvers run on it directly.
	// It is a read-only view over the parent's prepared target: its
	// lifecycle mutators return an error, and Fork gives a mutable
	// copy (see core.Problem.Subproblem).
	Problem *core.Problem
	// Candidates holds the parent candidate indices, ascending:
	// subproblem candidate k is parent candidate Candidates[k].
	Candidates []int
	// Tuples holds the parent JIndex tuple ids, ascending.
	Tuples []int
}

// Split decomposes the problem into the connected components of its
// evidence graph, preparing the parent first if needed. Components are
// found by union–find over the candidate and tuple nodes joined by
// every non-zero cover entry; candidates with no coverage at all are
// singleton components of their own, and target tuples covered by no
// candidate are gathered into one final candidate-free shard (absent
// when every tuple is covered). Every candidate and every tuple lands
// in exactly one shard, so per-shard objectives sum to the parent
// objective of the concatenated selection.
//
// The result is deterministic: shards are ordered by their smallest
// candidate index (the uncovered-tuple shard last), with candidate and
// tuple indices ascending inside each shard.
func Split(p *core.Problem) []Shard { return SplitN(p, 0) }

// SplitN is Split with a bound on the worker goroutines it may use
// (1 serial, ≤ 0 GOMAXPROCS); the result is identical at every bound.
// The split currently uses none at any bound: the decomposition is a
// near-linear union–find sweep, and each shard's subproblem is a view
// over the parent's prepared target (see core.Problem.Subproblem) that
// costs O(shard evidence) with no hashing — a worker pool over the
// extraction measured slower than the serial loop.
func SplitN(p *core.Problem, workers int) []Shard {
	p.Prepare()
	nc := p.NumCandidates()
	nj := p.JIndex().Len()
	analyses := p.Analyses()

	// Union–find over nc candidate nodes and nj tuple nodes (tuple j
	// is node nc+j), with path halving and union by size.
	uf := newUnionFind(nc + nj)
	for i := 0; i < nc; i++ {
		for _, pr := range analyses[i].Pairs {
			uf.union(i, nc+int(pr.J))
		}
	}

	// Assign dense component ids in order of smallest member
	// candidate: scanning candidates ascending and numbering unseen
	// roots as they appear yields exactly that order.
	compOf := make([]int32, nc+nj) // root node → component id + 1 (0: none yet)
	var comps []Shard
	for i := 0; i < nc; i++ {
		r := uf.find(i)
		if compOf[r] == 0 {
			comps = append(comps, Shard{})
			compOf[r] = int32(len(comps))
		}
		c := compOf[r] - 1
		comps[c].Candidates = append(comps[c].Candidates, i)
	}
	var uncovered []int
	jidx := p.JIndex()
	for j := 0; j < nj; j++ {
		if !jidx.Live(j) {
			continue // tombstoned slot: belongs to no shard
		}
		if c := compOf[uf.find(nc+j)] - 1; c >= 0 {
			comps[c].Tuples = append(comps[c].Tuples, j)
		} else {
			uncovered = append(uncovered, j)
		}
	}
	if len(uncovered) > 0 {
		comps = append(comps, Shard{Tuples: uncovered})
	}

	for c := range comps {
		comps[c].Problem = p.Subproblem(comps[c].Candidates, comps[c].Tuples)
	}
	return comps
}

// Stats summarises a decomposition, for reports and logs.
type Stats struct {
	// Shards is the total number of shards, including the
	// uncovered-tuple shard when present.
	Shards int
	// UncoveredTuples is the size of the candidate-free shard (target
	// tuples no candidate covers; constant w₁ each).
	UncoveredTuples int
	// LargestCandidates and LargestTuples are the maxima over shards —
	// the effective problem size after sharding.
	LargestCandidates int
	LargestTuples     int
}

// StatsOf computes the Stats of a Split result.
func StatsOf(shards []Shard) Stats {
	st := Stats{Shards: len(shards)}
	for _, sh := range shards {
		if len(sh.Candidates) == 0 {
			st.UncoveredTuples += len(sh.Tuples)
		}
		if len(sh.Candidates) > st.LargestCandidates {
			st.LargestCandidates = len(sh.Candidates)
		}
		if len(sh.Tuples) > st.LargestTuples {
			st.LargestTuples = len(sh.Tuples)
		}
	}
	return st
}

// unionFind is a classic disjoint-set forest with union by size and
// path halving.
type unionFind struct {
	parent []int32
	size   []int32
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != int32(x) {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = int(uf.parent[x])
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = int32(ra)
	uf.size[ra] += uf.size[rb]
}
