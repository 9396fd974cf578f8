package psl

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
)

// ADMMOptions configure MAP inference.
type ADMMOptions struct {
	// Rho is the augmented-Lagrangian step size (default 1).
	Rho float64
	// MaxIterations bounds the ADMM loop (default 5000).
	MaxIterations int
	// Epsilon is the residual convergence threshold (default 1e-5).
	Epsilon float64
	// EpsilonRel, when > 0, switches to combined absolute/relative
	// stopping tolerances (Boyd et al. §3.3): the solve stops when
	//
	//   ‖r‖ ≤ Epsilon + EpsilonRel·max(‖y‖, ‖z‖)   and
	//   ‖s‖·ρ ≤ Epsilon + EpsilonRel·ρ·‖u‖
	//
	// where ‖y‖/‖u‖ run over all factor-local copies/scaled duals and
	// ‖z‖ counts each consensus entry once per factor touching it (the
	// same multiplicity as ‖r‖ and ‖s‖). The pure-absolute criterion
	// (EpsilonRel == 0) is bit-identical to before the option existed.
	// A relative tolerance stops the solve once the residuals are
	// small against the iterate's own scale instead of polishing to a
	// fixed absolute precision — the standard choice for incremental
	// re-solves, whose perturbation bounds how much the optimum moved.
	EpsilonRel float64
	// Seed, when non-zero, perturbs the initial consensus values
	// around 0.5. The problem is convex, so the optimum is unchanged;
	// the perturbation only breaks ties between symmetric variables.
	Seed int64
	// Initial, when non-nil, sets the starting consensus values
	// (clamped to [0,1]) instead of the default 0.5 point, overriding
	// the Seed perturbation. Its length must equal the MRF's variable
	// count, or SolveMAP returns an error. A start near the optimum —
	// e.g. the solution of a slightly different MRF, the warm-start
	// path — cuts the iterations to convergence; the optimum itself is
	// unchanged (the problem is convex).
	Initial []float64
	// Warm, when non-nil, restores the scaled duals (and, for
	// overlapping variable indices, the consensus values) captured from
	// a previous solve of the same or an incrementally grown MRF. Dual
	// entries are matched by factor slot index — psl never reorders
	// m.Potentials/m.Constraints — and a nil or length-mismatched entry
	// falls back to the zero dual, so callers invalidate a rebuilt
	// factor by setting its slot to nil. Warm.Z overrides Initial where
	// both are present. The solve never mutates Warm.
	Warm *ADMMState
	// CaptureState, when set, records the final consensus, duals and
	// rho into Solution.State so a later solve can warm-restart via
	// Warm. Cancelled solves do not capture.
	CaptureState bool
	// Progress, when non-nil, is called every progressEvery
	// iterations with the current iteration count.
	Progress func(iter int)
	// Parallelism bounds the worker pool running the factor-local,
	// consensus and dual steps; ≤ 1 runs them inline. The iterates are
	// bit-identical at every parallelism level: work is partitioned
	// into fixed-size chunks (independent of the worker count) and the
	// residual partial sums are reduced in chunk order.
	Parallelism int
}

// ADMMState is the warm-restartable part of an ADMM solve: the final
// consensus vector, the scaled duals of every factor keyed by its slot
// in MRF.Potentials / MRF.Constraints, and the rho they are scaled by.
// Captured via ADMMOptions.CaptureState, restored via ADMMOptions.Warm.
// The two dual blocks are kept separate because an incrementally grown
// MRF appends to both slices independently; a single factor-order
// block would misalign after growth. When the presolve eliminates a
// variable, its hinge's PotU slot is nil and the merged factor's dual
// lives in its linking constraint's ConsU slot.
type ADMMState struct {
	// Z is the consensus vector; restored per-index, so variables
	// appended after the capture simply start from Initial/default.
	Z []float64
	// PotU[i] is the scaled dual of MRF.Potentials[i]; nil entries
	// (or entries whose length no longer matches the factor's term
	// count) are skipped on restore.
	PotU [][]float64
	// ConsU[i] is the scaled dual of MRF.Constraints[i], same
	// conventions as PotU.
	ConsU [][]float64
	// Rho is the step size the duals are scaled by. A restore adopts
	// it (when > 0), so the duals are never mis-scaled.
	Rho float64
}

// progressEvery is the cadence of ADMMOptions.Progress callbacks.
const progressEvery = 64

// factorChunk and varChunk are the fixed chunk sizes the ADMM phases
// are partitioned into. They are deliberately independent of
// Parallelism so that the floating-point reduction order — and hence
// every iterate — is identical whether the chunks run on one worker
// or many.
const (
	factorChunk = 128
	varChunk    = 256
)

// DefaultADMMOptions returns the defaults used across the repo.
func DefaultADMMOptions() ADMMOptions {
	return ADMMOptions{Rho: 1.0, MaxIterations: 5000, Epsilon: 1e-5}
}

// Solution is the result of MAP inference.
type Solution struct {
	X          []float64
	Objective  float64
	Iterations int
	Converged  bool
	// State holds the captured warm-restart state when
	// ADMMOptions.CaptureState was set (nil otherwise).
	State *ADMMState
}

// Factor kinds, in the order localStep dispatches on them.
const (
	kindHinge   = iota // weight·max(0, aᵀy + c)
	kindSquared        // weight·max(0, aᵀy + c)²
	kindConsLE         // aᵀy + c ≤ 0
	kindConsEQ         // aᵀy + c = 0
)

// factorSet is the ground program in struct-of-arrays form: one ADMM
// block per factor, with terms flattened into contiguous CSR arrays.
// The hot loops touch y/u/coefs/vars sequentially per factor instead
// of chasing per-factor slice headers, which roughly halves the
// per-iteration wall time on cache-bound problems.
//
// Factors are the MRF's potentials, then its constraints, in slot
// order, except that the presolve (see presolve) drops each eliminated
// variable's hinge and compiles its linking constraint into one merged
// hinge. potFactor/consFactor map MRF slots to factor indices, so
// captured duals stay keyed by MRF slot. With nothing eliminated the
// layout, and every iterate, is that of the plain slot-order compile.
type factorSet struct {
	off    []int32 // factor fi owns terms off[fi]..off[fi+1]
	vars   []int32 // flat term variable indices
	coefs  []float64
	y, u   []float64 // local copies and scaled duals, term-indexed
	konst  []float64 // per factor
	weight []float64 // per factor (potentials; 0 for constraints)
	norm2  []float64 // per factor, Σ coef²
	kind   []uint8   // per factor

	potFactor  []int32   // MRF potential slot → factor, -1 when eliminated
	consFactor []int32   // MRF constraint slot → factor
	elim       []elimVar // eliminated variables, recovered after the solve
}

// elimVar is a variable the presolve removed from the ADMM problem,
// with the constraint slot its value is recovered from.
type elimVar struct {
	v, cons int32
}

func (fs *factorSet) len() int { return len(fs.kind) }

// SolveMAP runs consensus ADMM on the MRF and returns the MAP state.
// The problem minimised is Σ potentials subject to the hard
// constraints and x ∈ [0,1]ⁿ; it is convex, so ADMM converges to a
// global optimum (of the continuous relaxation).
//
// ctx is checked once per iteration. On cancellation SolveMAP returns
// the partial Solution at the current iterate (Converged=false)
// together with ctx.Err(), so callers with a soft compute budget can
// keep the best-so-far state while callers wanting a hard stop
// propagate the error.
//
// The three steps of each iteration — factor-local updates, the
// consensus average, and the dual update — are each embarrassingly
// parallel (all local problems are independent given the
// consensus), so with opts.Parallelism > 1 they
// run on a persistent worker pool. The consensus step is sharded by
// variable over a precomputed factor-incidence CSR, so no two workers
// ever write the same consensus entry.
func SolveMAP(ctx context.Context, m *MRF, opts ADMMOptions) (*Solution, error) {
	if opts.Rho <= 0 {
		opts.Rho = 1
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 5000
	}
	if opts.Epsilon <= 0 {
		opts.Epsilon = 1e-5
	}
	n := m.NumVars()
	if opts.Initial != nil && len(opts.Initial) != n {
		return nil, fmt.Errorf("psl: ADMMOptions.Initial has %d values but the MRF has %d variables", len(opts.Initial), n)
	}
	z := make([]float64, n)
	for i := range z {
		z[i] = 0.5
	}
	if opts.Seed != 0 {
		rng := rand.New(rand.NewSource(opts.Seed))
		for i := range z {
			z[i] = 0.45 + 0.1*rng.Float64()
		}
	}
	if opts.Initial != nil {
		for i, v := range opts.Initial {
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			z[i] = v
		}
	}
	rho := opts.Rho
	if w := opts.Warm; w != nil {
		for i, v := range w.Z {
			if i >= n {
				break
			}
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			z[i] = v
		}
		if w.Rho > 0 {
			// Duals are scaled by the rho they were captured under;
			// resuming with any other value would mis-scale them.
			rho = w.Rho
		}
	}
	fs := buildFactorSet(m)
	numFactors := fs.len()
	if w := opts.Warm; w != nil {
		fs.restoreDuals(w.PotU, fs.potFactor)
		fs.restoreDuals(w.ConsU, fs.consFactor)
	}
	captureState := func(rho float64) *ADMMState {
		// One backing array holds every dual; each slot is a
		// capacity-capped window into it, so rescaling a slot in place
		// works and appending to one never spills into the next.
		buf := append([]float64(nil), fs.u...)
		return &ADMMState{
			Z:     append([]float64(nil), z...),
			PotU:  fs.dualSlots(buf, fs.potFactor),
			ConsU: fs.dualSlots(buf, fs.consFactor),
			Rho:   rho,
		}
	}
	if numFactors == 0 {
		sol := &Solution{X: z, Objective: 0, Converged: true}
		if opts.CaptureState {
			sol.State = captureState(rho)
		}
		return sol, nil
	}
	// zNext double-buffers the consensus: the consensus step writes the
	// new iterate into it and the buffers swap, replacing the old
	// per-iteration zOld copy (an O(n) allocation every iteration).
	zNext := make([]float64, n)

	// Variable-incidence CSR: for each variable, the flat term indices
	// that touch it. The consensus step sums over a variable's
	// incidence list, so each variable is owned by exactly one chunk
	// and the sum order is fixed regardless of parallelism.
	count := make([]float64, n)
	total := len(fs.vars)
	for _, v := range fs.vars {
		count[v]++
	}
	incOff := make([]int32, n+1)
	for v := 0; v < n; v++ {
		incOff[v+1] = incOff[v] + int32(count[v])
	}
	incTerm := make([]int32, total)
	cursor := make([]int32, n)
	copy(cursor, incOff[:n])
	for ti, v := range fs.vars {
		c := cursor[v]
		incTerm[c] = int32(ti)
		cursor[v] = c + 1
	}

	numFactChunks := (numFactors + factorChunk - 1) / factorChunk
	numVarChunks := (n + varChunk - 1) / varChunk
	primalPart := make([]float64, numFactChunks)
	dualPart := make([]float64, numVarChunks)
	rel := opts.EpsilonRel > 0
	var yNormPart, uNormPart, zNormPart []float64
	if rel {
		yNormPart = make([]float64, numFactChunks)
		uNormPart = make([]float64, numFactChunks)
		zNormPart = make([]float64, numVarChunks)
	}

	pool := newChunkPool(opts.Parallelism)
	defer pool.close()

	var iter int
	converged := false
	for iter = 0; iter < opts.MaxIterations; iter++ {
		select {
		case <-ctx.Done():
			fs.recoverEliminated(m, z)
			return &Solution{
				X:          z,
				Objective:  m.Objective(z),
				Iterations: iter,
				Converged:  false,
			}, ctx.Err()
		default:
		}
		if opts.Progress != nil && iter%progressEvery == 0 {
			opts.Progress(iter)
		}
		// Local steps: independent per factor.
		zCur := z
		pool.run(numFactChunks, func(chunk int) {
			lo := chunk * factorChunk
			hi := lo + factorChunk
			if hi > numFactors {
				hi = numFactors
			}
			for fi := lo; fi < hi; fi++ {
				fs.localStep(fi, zCur, rho)
			}
		})
		// Consensus step with box projection, sharded by variable; the
		// dual residual Σ_{(f,k)} (z_v − zOld_v)² = Σ_v count_v·Δ_v²
		// accumulates into per-chunk partials.
		zNew := zNext
		pool.run(numVarChunks, func(chunk int) {
			lo := chunk * varChunk
			hi := lo + varChunk
			if hi > n {
				hi = n
			}
			// The ‖z‖ partial rides along in the same pass: it costs
			// little next to the gather, and only the relative
			// criterion reads it.
			dp, zn := 0.0, 0.0
			for v := lo; v < hi; v++ {
				if count[v] == 0 {
					zNew[v] = zCur[v]
					continue
				}
				s := 0.0
				for i := incOff[v]; i < incOff[v+1]; i++ {
					t := incTerm[i]
					s += fs.y[t] + fs.u[t]
				}
				zi := s / count[v]
				if zi < 0 {
					zi = 0
				}
				if zi > 1 {
					zi = 1
				}
				zNew[v] = zi
				d := zi - zCur[v]
				dp += count[v] * d * d
				zn += count[v] * zi * zi
			}
			dualPart[chunk] = dp
			if rel {
				zNormPart[chunk] = zn
			}
		})
		z, zNext = zNext, z
		// Dual updates and the primal residual, chunked over factors.
		zCons := z
		pool.run(numFactChunks, func(chunk int) {
			lo := chunk * factorChunk
			hi := lo + factorChunk
			if hi > numFactors {
				hi = numFactors
			}
			tlo, thi := fs.off[lo], fs.off[hi]
			// ‖y‖ and ‖u‖ partials ride along, like ‖z‖ above.
			pp, yn, un := 0.0, 0.0, 0.0
			for ti := tlo; ti < thi; ti++ {
				y := fs.y[ti]
				r := y - zCons[fs.vars[ti]]
				u := fs.u[ti] + r
				fs.u[ti] = u
				pp += r * r
				yn += y * y
				un += u * u
			}
			primalPart[chunk] = pp
			if rel {
				yNormPart[chunk] = yn
				uNormPart[chunk] = un
			}
		})
		// Reduce partials in chunk order (deterministic).
		primal, dual := 0.0, 0.0
		for _, p := range primalPart {
			primal += p
		}
		for _, d := range dualPart {
			dual += d
		}
		epsPri, epsDual := opts.Epsilon, opts.Epsilon
		if rel {
			yy, uu, zz := 0.0, 0.0, 0.0
			for _, v := range yNormPart {
				yy += v
			}
			for _, v := range uNormPart {
				uu += v
			}
			for _, v := range zNormPart {
				zz += v
			}
			epsPri += opts.EpsilonRel * math.Sqrt(math.Max(yy, zz))
			epsDual += opts.EpsilonRel * rho * math.Sqrt(uu)
		}
		if math.Sqrt(primal) < epsPri && math.Sqrt(dual)*rho < epsDual {
			iter++
			converged = true
			break
		}
	}
	fs.recoverEliminated(m, z)
	sol := &Solution{
		X:          z,
		Objective:  m.Objective(z),
		Iterations: iter,
		Converged:  converged,
	}
	if opts.CaptureState {
		sol.State = captureState(rho)
	}
	if !m.Feasible(z, 1e-3) {
		// Constraints can lag at loose tolerances; report rather than
		// fail, callers decide.
		return sol, fmt.Errorf("psl: ADMM finished with infeasible constraints (iter=%d)", iter)
	}
	return sol, nil
}

// buildFactorSet compiles the MRF into ADMM factors, eliminating the
// variables presolve finds.
func buildFactorSet(m *MRF) *factorSet {
	merged, elim := presolve(m)
	nf := len(m.Potentials) + len(m.Constraints) - len(elim)
	fs := &factorSet{
		off:        make([]int32, 1, nf+1),
		konst:      make([]float64, 0, nf),
		weight:     make([]float64, 0, nf),
		norm2:      make([]float64, 0, nf),
		kind:       make([]uint8, 0, nf),
		potFactor:  make([]int32, len(m.Potentials)),
		consFactor: make([]int32, len(m.Constraints)),
		elim:       elim,
	}
	n2 := 0.0
	term := func(v int, coef float64) {
		fs.vars = append(fs.vars, int32(v))
		fs.coefs = append(fs.coefs, coef)
		n2 += coef * coef
	}
	closeFactor := func(konst float64, kind uint8, weight float64) {
		fs.off = append(fs.off, int32(len(fs.vars)))
		fs.konst = append(fs.konst, konst)
		fs.weight = append(fs.weight, weight)
		fs.norm2 = append(fs.norm2, n2)
		fs.kind = append(fs.kind, kind)
		n2 = 0
	}
	for _, e := range elim {
		fs.potFactor[merged[e.cons]] = -1
	}
	for pi, p := range m.Potentials {
		if fs.potFactor[pi] < 0 {
			continue
		}
		fs.potFactor[pi] = int32(fs.len())
		for _, t := range p.Terms {
			term(t.Var, t.Coef)
		}
		kind := uint8(kindHinge)
		if p.Squared {
			kind = kindSquared
		}
		closeFactor(p.Const, kind, p.Weight)
	}
	next := 0 // next entry of elim, which is in constraint order
	for ci, c := range m.Constraints {
		fs.consFactor[ci] = int32(fs.len())
		if next < len(elim) && int(elim[next].cons) == ci {
			// w·max(0, c_P + a·e) with b·e + Σ d·x + c_C ≤ 0 becomes
			// w·max(0, c_P + r·c_C + Σ r·d·x), r = −a/b.
			e := int(elim[next].v)
			next++
			p := m.Potentials[merged[ci]]
			r := -p.Terms[0].Coef / coefOf(c.Terms, e)
			for _, t := range c.Terms {
				if t.Var != e {
					term(t.Var, r*t.Coef)
				}
			}
			closeFactor(p.Const+r*c.Const, kindHinge, p.Weight)
			continue
		}
		for _, t := range c.Terms {
			term(t.Var, t.Coef)
		}
		kind := uint8(kindConsEQ)
		if c.Cmp == LE {
			kind = kindConsLE
		}
		closeFactor(c.Const, kind, 0)
	}
	fs.y = make([]float64, len(fs.vars))
	fs.u = make([]float64, len(fs.vars))
	return fs
}

// presolve finds the variables ADMM can do without. A variable e is
// eliminated when it occurs exactly twice:
//
//   - as the only term of a linear hinge w·max(0, c_P + a·e) with
//     w > 0, a < 0 and c_P + a ≤ 0, and
//   - in an LE constraint b·e + Σ d·x + c_C ≤ 0 with b > 0, every
//     d ≤ 0 and c_C ≤ 0.
//
// The hinge is non-increasing in e, and the constraint caps e at
// S = (−c_C − Σ d·x)/b ≥ 0, so e's optimum is min(1, S) and the pair
// is exactly the one hinge w·max(0, c_P − (a/b)·c_C − (a/b)·Σ d·x):
// both vanish once S ≥ 1 (because c_P + a ≤ 0) and agree below it.
// This is the capped-sum LP of Bach et al. (JMLR 2017): the PSL pair
// w₁·max(0, 1 − Explained(t)), Explained(t) ≤ Σ covers·In(θ) compiles
// to w₁·max(0, 1 − Σ covers·In(θ)) bit for bit.
//
// merged[ci] is the potential slot merged into constraint ci (nil
// when nothing is eliminated); elim lists the eliminated variables in
// constraint order.
func presolve(m *MRF) (merged []int32, elim []elimVar) {
	n := m.NumVars()
	occ := make([]int32, n)
	hinge := make([]int32, n) // 1 + slot of a hinge e can be eliminated from
	for pi, p := range m.Potentials {
		for _, t := range p.Terms {
			occ[t.Var]++
		}
		if !p.Squared && p.Weight > 0 && len(p.Terms) == 1 &&
			p.Terms[0].Coef < 0 && p.Const+p.Terms[0].Coef <= 0 {
			hinge[p.Terms[0].Var] = int32(pi) + 1
		}
	}
	for _, c := range m.Constraints {
		for _, t := range c.Terms {
			occ[t.Var]++
		}
	}
	for ci, c := range m.Constraints {
		if c.Cmp != LE || c.Const > 0 {
			continue
		}
		e, positives := -1, 0
		for _, t := range c.Terms {
			if t.Coef > 0 {
				e = t.Var
				positives++
			}
		}
		if positives != 1 || occ[e] != 2 || hinge[e] == 0 {
			continue
		}
		if merged == nil {
			merged = make([]int32, len(m.Constraints))
			for i := range merged {
				merged[i] = -1
			}
		}
		merged[ci] = hinge[e] - 1
		elim = append(elim, elimVar{v: int32(e), cons: int32(ci)})
	}
	return merged, elim
}

// coefOf returns v's coefficient in terms (0 when absent).
func coefOf(terms []LinTerm, v int) float64 {
	for _, t := range terms {
		if t.Var == v {
			return t.Coef
		}
	}
	return 0
}

// recoverEliminated sets each eliminated variable to its optimum
// min(1, max(0, S)), S = (−c_C − Σ d·x)/b, the largest value its
// linking constraint allows at z.
func (fs *factorSet) recoverEliminated(m *MRF, z []float64) {
	for _, e := range fs.elim {
		c := m.Constraints[e.cons]
		s := -c.Const
		for _, t := range c.Terms {
			if t.Var != int(e.v) {
				s -= t.Coef * z[t.Var]
			}
		}
		z[e.v] = math.Min(1, math.Max(0, s/coefOf(c.Terms, int(e.v))))
	}
}

// restoreDuals copies captured duals into the factors their MRF slots
// compile to. Slots that are nil, eliminated, out of range or whose
// length no longer matches the factor keep the zero dual.
func (fs *factorSet) restoreDuals(slots [][]float64, factorOf []int32) {
	for slot, u := range slots {
		if slot >= len(factorOf) || u == nil || factorOf[slot] < 0 {
			continue
		}
		fi := factorOf[slot]
		if lo, hi := fs.off[fi], fs.off[fi+1]; len(u) == int(hi-lo) {
			copy(fs.u[lo:hi], u)
		}
	}
}

// dualSlots cuts per-slot dual windows out of buf, a copy of fs.u; an
// eliminated slot stays nil.
func (fs *factorSet) dualSlots(buf []float64, factorOf []int32) [][]float64 {
	out := make([][]float64, len(factorOf))
	for slot, fi := range factorOf {
		if fi >= 0 {
			lo, hi := fs.off[fi], fs.off[fi+1]
			out[slot] = buf[lo:hi:hi]
		}
	}
	return out
}

// localStep minimises factor fi's local objective
// φ(y) + ρ/2·Σ (y_k − z_k + u_k)² in closed form (Bach et al. 2017).
func (fs *factorSet) localStep(fi int, z []float64, rho float64) {
	lo, hi := fs.off[fi], fs.off[fi+1]
	// v = z − u is the unconstrained minimiser of the proximal term;
	// it is computed into the local copy's storage, and val = aᵀv + c
	// in the same pass (every branch needs it, and v does not change
	// before val's last use).
	v := fs.y[lo:hi]
	coefs := fs.coefs[lo:hi]
	u := fs.u[lo:hi]
	vars := fs.vars[lo:hi]
	val := fs.konst[fi]
	for k, vi := range vars {
		v[k] = z[vi] - u[k]
		val += coefs[k] * v[k]
	}
	switch fs.kind[fi] {
	case kindConsLE, kindConsEQ:
		// Projection onto {aᵀy + c ≤ 0} (or = 0).
		if fs.kind[fi] == kindConsLE && val <= 0 {
			return
		}
		if fs.norm2[fi] == 0 {
			return
		}
		t := val / fs.norm2[fi]
		for k := range v {
			v[k] -= t * coefs[k]
		}
		return
	case kindSquared:
		// min w·max(0, aᵀy+c)² + ρ/2‖y−v‖².
		if val <= 0 {
			return
		}
		scale := 2 * fs.weight[fi] * val / (rho + 2*fs.weight[fi]*fs.norm2[fi])
		for k := range v {
			v[k] -= scale * coefs[k]
		}
		return
	}
	// Linear hinge: min w·max(0, aᵀy+c) + ρ/2‖y−v‖².
	if val <= 0 {
		return // hinge inactive at the proximal point
	}
	// Try the smooth region aᵀy+c > 0: y = v − (w/ρ)a.
	shift := fs.weight[fi] / rho
	ok := fs.konst[fi]
	for k, c := range coefs {
		ok += c * (v[k] - shift*c)
	}
	if ok >= 0 {
		for k := range v {
			v[k] -= shift * coefs[k]
		}
		return
	}
	// Kink: project onto the hyperplane aᵀy + c = 0.
	if fs.norm2[fi] == 0 {
		return
	}
	t := val / fs.norm2[fi]
	for k := range v {
		v[k] -= t * coefs[k]
	}
}

// chunkPool runs phases of chunked work on persistent workers. A nil
// pool (parallelism ≤ 1) runs chunks inline; otherwise each run
// dispatches the phase to every worker, which race through the chunk
// indices via a shared atomic counter. The pool is created once per
// solve, so the per-phase cost is one channel send per worker plus a
// WaitGroup barrier — cheap enough for thousands of ADMM iterations.
//
// A panic in a chunk does not kill the process from a worker
// goroutine: the worker records the first one, the other workers
// finish the phase, and run re-raises it on the calling goroutine,
// where the caller's recover (or deferred close) sees it.
type chunkPool struct {
	workers int
	next    atomic.Int64
	wg      sync.WaitGroup
	jobs    []chan chunkJob

	panicMu sync.Mutex // guards panicked
	// panicked holds the first recovered chunk panic of the current
	// run (nil when none).
	panicked any
}

type chunkJob struct {
	n  int
	fn func(chunk int)
}

// newChunkPool returns nil when workers ≤ 1 (inline execution).
func newChunkPool(workers int) *chunkPool {
	if workers <= 1 {
		return nil
	}
	p := &chunkPool{workers: workers, jobs: make([]chan chunkJob, workers)}
	for w := range p.jobs {
		ch := make(chan chunkJob, 1)
		p.jobs[w] = ch
		go func() {
			for j := range ch {
				p.work(j)
				p.wg.Done()
			}
		}()
	}
	return p
}

// work runs chunks of j until none are left, recording a panic
// instead of letting it escape the worker goroutine.
func (p *chunkPool) work(j chunkJob) {
	defer func() {
		if r := recover(); r != nil {
			p.panicMu.Lock()
			if p.panicked == nil {
				p.panicked = r
			}
			p.panicMu.Unlock()
		}
	}()
	for {
		c := int(p.next.Add(1)) - 1
		if c >= j.n {
			return
		}
		j.fn(c)
	}
}

// run executes fn(0..n-1) across the pool and returns when every
// chunk is done. If a chunk panicked, run panics with the same value
// once every worker has finished the phase.
func (p *chunkPool) run(n int, fn func(chunk int)) {
	if p == nil {
		for c := 0; c < n; c++ {
			fn(c)
		}
		return
	}
	p.next.Store(0)
	p.wg.Add(p.workers)
	for _, ch := range p.jobs {
		ch <- chunkJob{n: n, fn: fn}
	}
	p.wg.Wait()
	p.panicMu.Lock()
	r := p.panicked
	p.panicked = nil
	p.panicMu.Unlock()
	if r != nil {
		panic(r)
	}
}

// close shuts the workers down; safe on a nil (inline) pool.
func (p *chunkPool) close() {
	if p == nil {
		return
	}
	for _, ch := range p.jobs {
		close(ch)
	}
}
