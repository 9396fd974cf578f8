package core

import (
	"fmt"
	"sync"

	"schemamap/internal/psl"
)

// grounding is the retained direct-build HL-MRF of a Problem: the
// ground MRF plus the slot bookkeeping incremental re-grounding needs
// to touch only delta-dirty factors after an AppendTarget, and the
// captured ADMM dual state the next warm solve restarts from.
//
// Invariants, maintained by buildGrounding/applyDelta:
//
//   - inVar[i] is candidate i's In variable; expVar[j] is tuple j's
//     Explained variable or -1 while j has no coverage (no Explained
//     atom is ground for it, matching the cold build's Section III-C
//     preprocessing).
//   - potSlot[j] / consSlot[j] index tuple j's w₁ potential and
//     linking constraint inside mrf.Potentials / mrf.Constraints, or
//     -1. priorSlot[i] indexes candidate i's prior potential, or -1
//     when the prior weight was ≤ 0 at build time (the cold build
//     drops it too).
//   - Factors are only ever appended or rebuilt in place at their
//     slot, never reordered, so slots are stable across appends and
//     the dual-state blocks in psl.ADMMState stay aligned; a rebuilt
//     slot's dual entry is set to nil (the psl warm-restore skips it).
//
// The rare transitions the slot surgery cannot express — a tuple's
// coverage vanishing, or a prior weight crossing to ≤ 0 — invalidate
// the whole grounding (applyDelta returns false and the next solve
// rebuilds cold), keeping the incremental MRF exactly equal to a cold
// buildGrounding in every case.
type grounding struct {
	mrf       *psl.MRF
	inVar     []int
	expVar    []int32
	potSlot   []int32
	consSlot  []int32
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
// solvers; only AppendTarget mutates it, and the Problem contract
// already forbids appends concurrent with solves.
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
		inVar:     make([]int, n),
		priorSlot: make([]int32, n),
		weights:   p.Weights,
	}
	for i := 0; i < n; i++ {
		g.inVar[i] = g.mrf.AtomVar("In", fmt.Sprintf("m%d", i))
	}
	inc := p.Incidence()
	nt := inc.NumTuples()
	g.expVar = make([]int32, nt)
	g.potSlot = make([]int32, nt)
	g.consSlot = make([]int32, nt)
	for j := 0; j < nt; j++ {
		g.expVar[j], g.potSlot[j], g.consSlot[j] = -1, -1, -1
		cands, covs := inc.Row(j)
		if len(cands) == 0 {
			continue
		}
		g.groundTuple(p, j, cands, covs)
	}
	for i := range p.analyses {
		g.priorSlot[i] = -1
		w := priorWeight(p, i)
		if w <= 0 {
			continue
		}
		g.priorSlot[i] = int32(len(g.mrf.Potentials))
		g.mrf.AddPotential(psl.Potential{
			Weight: w,
			Terms:  []psl.LinTerm{{Var: g.inVar[i], Coef: 1}},
		})
	}
	return g
}

// priorWeight is candidate i's selection-prior weight
// w₂·errors + w₃·size.
func priorWeight(p *Problem, i int) float64 {
	a := &p.analyses[i]
	return p.Weights.Error*a.Errors + p.Weights.Size*float64(a.Size)
}

// groundTuple appends tuple j's Explained variable, w₁ potential and
// linking constraint (first grounding of a covered tuple).
func (g *grounding) groundTuple(p *Problem, j int, cands []int32, covs []float64) {
	ev := g.mrf.AtomVar("Explained", fmt.Sprintf("t%d", j))
	g.expVar[j] = int32(ev)
	if p.Weights.Explain > 0 {
		g.potSlot[j] = int32(len(g.mrf.Potentials))
		g.mrf.AddPotential(psl.Potential{
			Weight: p.Weights.Explain,
			Terms:  []psl.LinTerm{{Var: ev, Coef: -1}},
			Const:  1,
		})
	}
	g.consSlot[j] = int32(len(g.mrf.Constraints))
	_ = g.mrf.AddConstraint(psl.Constraint{Terms: g.linkTerms(j, cands, covs), Cmp: psl.LE})
}

// linkTerms builds Explained(t_j) − Σ covers·In(θ) in the cold build's
// term order.
func (g *grounding) linkTerms(j int, cands []int32, covs []float64) []psl.LinTerm {
	terms := make([]psl.LinTerm, 0, len(cands)+1)
	terms = append(terms, psl.LinTerm{Var: int(g.expVar[j]), Coef: 1})
	for k, i := range cands {
		terms = append(terms, psl.LinTerm{Var: g.inVar[i], Coef: -covs[k]})
	}
	return terms
}

// applyDelta re-grounds only the factors an AppendTarget dirtied:
// newly covered tuples get appended variables/factors, changed linking
// constraints are rebuilt in place at their slot (tombstoning the
// retained dual), and changed prior weights are updated in place. It
// reports false when the delta needs a transition the slot surgery
// cannot express; the caller then drops the grounding entirely.
// Callers hold p.groundMu.
func (g *grounding) applyDelta(p *Problem, d *TargetDelta) bool {
	if g.weights != p.Weights {
		return false
	}
	// Removed tuples: an uncovered one never had factors — nothing to
	// do. A covered one would need its variable and factors dropped,
	// which slot surgery cannot express; rebuild cold (the cold build
	// omits the dead slot entirely, trivially matching buildGrounding).
	for _, j := range d.RemovedTuples {
		if g.expVar[j] >= 0 {
			return false
		}
	}
	inc := p.incidence
	for len(g.expVar) < d.NewTuples {
		g.expVar = append(g.expVar, -1)
		g.potSlot = append(g.potSlot, -1)
		g.consSlot = append(g.consSlot, -1)
	}
	// Pre-existing tuples whose coverage row changed: rebuild the
	// linking constraint in place (or ground the tuple now if this is
	// its first coverage).
	for _, j32 := range d.ChangedTuples {
		j := int(j32)
		cands, covs := inc.Row(j)
		if len(cands) == 0 {
			if g.expVar[j] >= 0 {
				// Coverage vanished (possible only under HomLimit
				// truncation): the cold build would omit the tuple's
				// factors entirely; rebuild cold.
				return false
			}
			continue
		}
		if g.expVar[j] < 0 {
			g.groundTuple(p, j, cands, covs)
			continue
		}
		slot := g.consSlot[j]
		g.mrf.Constraints[slot] = psl.Constraint{Terms: g.linkTerms(j, cands, covs), Cmp: psl.LE}
		g.invalidateCons(slot)
	}
	// Appended tuples: ground the covered ones (uncovered ones stay
	// absent, exactly as in a cold build).
	for j := d.OldTuples; j < d.NewTuples; j++ {
		cands, covs := inc.Row(j)
		if len(cands) == 0 {
			continue
		}
		g.groundTuple(p, j, cands, covs)
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

// invalidateCons tombstones a rebuilt constraint's retained dual.
func (g *grounding) invalidateCons(slot int32) {
	g.stateMu.Lock()
	if g.state != nil && int(slot) < len(g.state.ConsU) {
		g.state.ConsU[slot] = nil
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
// selection.
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

// warmInitial builds the ADMM starting consensus from a prior
// selection (the WithWarmStart path): In atoms start at the prior
// relaxation (or the 0/1 selection when no relaxation was recorded),
// and Explained atoms at their induced optimal value min(1, Σ
// covers·In) under the current — possibly appended — evidence, so the
// linking constraints start (near-)satisfied. Variables the prior
// says nothing about keep the neutral 0.5. It reads the cached
// variable indices only, so it never creates a variable on the shared
// MRF.
func (g *grounding) warmInitial(p *Problem, w *Selection) []float64 {
	init := make([]float64, g.mrf.NumVars())
	for i := range init {
		init[i] = 0.5
	}
	relax := warmRelax(p, w)
	for i, v := range g.inVar {
		init[v] = relax[i]
	}
	inc := p.Incidence()
	for j := 0; j < inc.NumTuples(); j++ {
		if j >= len(g.expVar) || g.expVar[j] < 0 {
			continue
		}
		cands, covs := inc.Row(j)
		sum := 0.0
		for k, i := range cands {
			sum += covs[k] * relax[i]
		}
		if sum > 1 {
			sum = 1
		}
		init[g.expVar[j]] = sum
	}
	return init
}
