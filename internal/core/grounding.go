package core

import (
	"fmt"
	"sync"

	"schemamap/internal/psl"
)

// grounding is the retained direct-build HL-MRF of a Problem: the
// ground MRF plus the slot bookkeeping incremental re-grounding needs
// to touch only delta-dirty factors after a lifecycle mutation, and the
// captured ADMM dual state the next warm solve restarts from.
//
// The MRF is the collective encoding with every Explained(t) atom
// already eliminated: variable i is candidate i's In atom, and each
// covered tuple t is the one hinge w₁·max(0, 1 − Σ covers·In(θ)),
// the capped-sum form of Bach et al. (JMLR 2017). It has no hard
// constraints.
//
// Invariants, maintained by buildGrounding/applyDelta:
//
//   - potSlot[j] indexes tuple j's hinge inside mrf.Potentials, or -1
//     while j has no coverage (no hinge is ground for it, matching the
//     cold build's Section III-C preprocessing) or w₁ ≤ 0. priorSlot[i]
//     indexes candidate i's prior potential, or -1 when the prior
//     weight was ≤ 0 at build time (the cold build drops it too).
//   - The cold build emits the priors in candidate order, then the
//     tuple hinges in tuple order. Factors are only ever appended or
//     rebuilt in place at their slot, never reordered, so slots are
//     stable across appends and the dual-state blocks in
//     psl.ADMMState stay aligned; a rebuilt slot's dual entry is set
//     to nil (the psl warm-restore skips it).
//
// The rare transitions the slot surgery cannot express — a covered
// tuple being removed or losing its coverage, or a prior weight
// crossing to ≤ 0 — invalidate the whole grounding (applyDelta returns
// false and the next solve rebuilds cold), keeping the incremental MRF
// exactly equal to a cold buildGrounding in every case.
type grounding struct {
	mrf       *psl.MRF
	potSlot   []int32
	priorSlot []int32
	weights   Weights // the weights the MRF was ground with

	// stateMu guards state: solves store captured duals concurrently,
	// appends prune them (appends never overlap solves per the
	// Problem mutation contract, but solves overlap each other).
	stateMu sync.Mutex
	state   *psl.ADMMState
}

// directGrounding returns the retained grounding, building it on first
// use (or after an invalidation). The returned MRF is read-only for
// solvers; only the lifecycle mutators patch it, and the Problem
// contract already forbids mutations concurrent with solves.
func (p *Problem) directGrounding() *grounding {
	p.Prepare()
	p.groundMu.Lock()
	defer p.groundMu.Unlock()
	if p.ground != nil && p.ground.weights != p.Weights {
		p.ground = nil // weights changed since the build: re-ground cold
	}
	if p.ground == nil {
		p.ground = buildGrounding(p)
	}
	return p.ground
}

// SelectionMRF prepares the problem and returns a freshly built ground
// HL-MRF of the collective solver's encoding. It is built cold and
// never touches the retained grounding, so the caller owns it.
//
//lint:testonly psl oracle tests and core grounding tests compare against the cold build
func (p *Problem) SelectionMRF() *psl.MRF {
	p.Prepare()
	return buildGrounding(p).mrf
}

// buildGrounding is the cold direct build of the ground HL-MRF, with
// slot recording.
func buildGrounding(p *Problem) *grounding {
	n := p.NumCandidates()
	g := &grounding{
		mrf:       psl.NewMRF(),
		priorSlot: make([]int32, n),
		weights:   p.Weights,
	}
	for i := 0; i < n; i++ {
		g.mrf.AtomVar("In", fmt.Sprintf("m%d", i))
		g.priorSlot[i] = -1
		w := priorWeight(p, i)
		if w <= 0 {
			continue
		}
		g.priorSlot[i] = int32(len(g.mrf.Potentials))
		g.mrf.AddPotential(psl.Potential{
			Weight: w,
			Terms:  []psl.LinTerm{{Var: i, Coef: 1}},
		})
	}
	inc := p.Incidence()
	g.potSlot = make([]int32, inc.NumTuples())
	for j := range g.potSlot {
		g.potSlot[j] = -1
		if cands, covs := inc.Row(j); len(cands) > 0 {
			g.groundTuple(p, j, cands, covs)
		}
	}
	return g
}

// priorWeight is candidate i's selection-prior weight
// w₂·errors + w₃·size.
func priorWeight(p *Problem, i int) float64 {
	a := &p.analyses[i]
	return p.Weights.Error*a.Errors + p.Weights.Size*float64(a.Size)
}

// tupleHinge is tuple j's w₁·max(0, 1 − Σ covers·In(θ)).
func tupleHinge(w1 float64, cands []int32, covs []float64) psl.Potential {
	terms := make([]psl.LinTerm, len(cands))
	for k, i := range cands {
		terms[k] = psl.LinTerm{Var: int(i), Coef: -covs[k]}
	}
	return psl.Potential{Weight: w1, Terms: terms, Const: 1}
}

// groundTuple appends tuple j's hinge (first grounding of a covered
// tuple). With w₁ ≤ 0 the hinge is weightless and stays absent.
func (g *grounding) groundTuple(p *Problem, j int, cands []int32, covs []float64) {
	if p.Weights.Explain > 0 {
		g.potSlot[j] = int32(len(g.mrf.Potentials))
		g.mrf.AddPotential(tupleHinge(p.Weights.Explain, cands, covs))
	}
}

// applyDelta re-grounds only the factors a target or source delta
// dirtied: newly covered tuples get appended hinges, changed tuple
// hinges are rebuilt in place at their slot (tombstoning the retained
// dual), and changed prior weights are updated in place. It reports
// false when the delta needs a transition the slot surgery cannot
// express; the caller then drops the grounding entirely. Callers hold
// p.groundMu.
func (g *grounding) applyDelta(p *Problem, d *TargetDelta) bool {
	if g.weights != p.Weights {
		return false
	}
	// Removed tuples: an uncovered one never had a hinge — nothing to
	// do. Dropping a covered one's hinge from the middle of the slab
	// would reorder the factors after it; rebuild cold (the cold build
	// omits the dead tuple entirely, trivially matching buildGrounding).
	for _, j := range d.RemovedTuples {
		if g.potSlot[j] >= 0 {
			return false
		}
	}
	inc := p.incidence
	for len(g.potSlot) < d.NewTuples {
		g.potSlot = append(g.potSlot, -1)
	}
	// Pre-existing tuples whose coverage row changed: rebuild the hinge
	// in place (or ground the tuple now if this is its first coverage).
	for _, j32 := range d.ChangedTuples {
		j := int(j32)
		cands, covs := inc.Row(j)
		slot := g.potSlot[j]
		switch {
		case len(cands) == 0 && slot >= 0:
			// Coverage vanished (a source removal, or HomLimit
			// truncation): the cold build would omit the hinge; rebuild
			// cold.
			return false
		case len(cands) == 0:
		case slot < 0:
			g.groundTuple(p, j, cands, covs)
		default:
			g.mrf.Potentials[slot] = tupleHinge(p.Weights.Explain, cands, covs)
			g.tombstonePot(slot)
		}
	}
	// Appended tuples: ground the covered ones (uncovered ones stay
	// absent, exactly as in a cold build).
	for j := d.OldTuples; j < d.NewTuples; j++ {
		if cands, covs := inc.Row(j); len(cands) > 0 {
			g.groundTuple(p, j, cands, covs)
		}
	}
	// Prior-weight updates (errors drop on appends and can grow on
	// removals — the rescale below works in either direction). The
	// prior is a linear cost w·In(θ), whose optimal consensus
	// multiplier scales exactly linearly with w — so instead of
	// tombstoning the retained dual (appends reweight over half the
	// priors per batch, and each tombstone zeroes a dual on a central
	// In variable), rescale it by the weight ratio.
	for _, i := range d.ErrorsChanged {
		w := priorWeight(p, int(i))
		slot := g.priorSlot[i]
		if slot < 0 {
			if w > 0 {
				return false // a prior appeared from nothing: rebuild
			}
			continue // still weightless, still absent — like a cold build
		}
		if w <= 0 {
			return false // the cold build would drop this potential
		}
		old := g.mrf.Potentials[slot].Weight
		g.mrf.Potentials[slot].Weight = w
		g.rescalePot(slot, w/old)
	}
	return true
}

// tombstonePot drops a rebuilt potential's retained dual.
func (g *grounding) tombstonePot(slot int32) {
	g.stateMu.Lock()
	if g.state != nil && int(slot) < len(g.state.PotU) {
		g.state.PotU[slot] = nil
	}
	g.stateMu.Unlock()
}

// rescalePot scales a reweighted potential's retained dual by the
// weight ratio (the prior's optimal multiplier is proportional to its
// weight, so the rescaled dual stays a consistent restart point).
func (g *grounding) rescalePot(slot int32, ratio float64) {
	g.stateMu.Lock()
	if g.state != nil && int(slot) < len(g.state.PotU) {
		for k := range g.state.PotU[slot] {
			g.state.PotU[slot][k] *= ratio
		}
	}
	g.stateMu.Unlock()
}

// takeState returns the retained dual state (shared, read-only for
// the solver) or nil.
func (g *grounding) takeState() *psl.ADMMState {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	return g.state
}

// putState retains a captured dual state for the next warm solve.
func (g *grounding) putState(st *psl.ADMMState) {
	if st == nil {
		return
	}
	g.stateMu.Lock()
	g.state = st
	g.stateMu.Unlock()
}

// warmRelax derives the per-candidate warm values from a prior
// selection: its recorded relaxation when present, else the 0/1
// selection. Every MRF variable is an In atom, so this is also the
// ADMM starting consensus of a WithWarmStart solve.
func warmRelax(p *Problem, w *Selection) []float64 {
	n := p.NumCandidates()
	relax := w.Relaxation
	if len(relax) != n {
		relax = make([]float64, n)
		for i, on := range w.Chosen {
			if i < n && on {
				relax[i] = 1
			}
		}
	}
	return relax
}
