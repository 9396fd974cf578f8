package psl

import (
	"context"
	"fmt"
	"math"
	"math/rand"
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
}

// ADMMState is the warm-restartable part of an ADMM solve: the final
// consensus vector, the scaled duals of every factor keyed by its slot
// in MRF.Potentials / MRF.Constraints, and the rho they are scaled by.
// Captured via ADMMOptions.CaptureState, restored via ADMMOptions.Warm.
// The two dual blocks are kept separate because an incrementally grown
// MRF appends to both slices independently; a single factor-order
// block would misalign after growth. Every captured slot holds its
// factor's dual; nil slots appear only where a caller tombstoned one.
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
// order: potential slot i is factor i and constraint slot i is factor
// len(m.Potentials)+i, so captured duals stay keyed by MRF slot.
type factorSet struct {
	off    []int32 // factor fi owns terms off[fi]..off[fi+1]
	vars   []int32 // flat term variable indices
	coefs  []float64
	y, u   []float64 // local copies and scaled duals, term-indexed
	konst  []float64 // per factor
	weight []float64 // per factor (potentials; 0 for constraints)
	norm2  []float64 // per factor, Σ coef²
	kind   []uint8   // per factor
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
// Each iteration runs three passes on the calling goroutine: the
// factor-local updates, the consensus average over a precomputed
// variable-incidence CSR, and the dual update. Every residual norm is
// summed inside the pass that produces it.
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
	np, nc := len(m.Potentials), len(m.Constraints)
	if w := opts.Warm; w != nil {
		fs.restoreDuals(w.PotU, 0, np)
		fs.restoreDuals(w.ConsU, np, nc)
	}
	captureState := func(rho float64) *ADMMState {
		// One backing array holds every dual; each slot is a
		// capacity-capped window into it, so rescaling a slot in place
		// works and appending to one never spills into the next.
		buf := append([]float64(nil), fs.u...)
		return &ADMMState{
			Z:     append([]float64(nil), z...),
			PotU:  fs.dualSlots(buf, 0, np),
			ConsU: fs.dualSlots(buf, np, nc),
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
	// incidence list in a fixed order.
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

	var iter int
	converged := false
	for iter = 0; iter < opts.MaxIterations; iter++ {
		select {
		case <-ctx.Done():
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
		for fi := 0; fi < numFactors; fi++ {
			fs.localStep(fi, z, rho)
		}
		// Consensus step with box projection. The dual residual
		// Σ_{(f,k)} (z_v − zOld_v)² = Σ_v count_v·Δ_v² and ‖z‖ (which
		// only the relative criterion reads) accumulate in the same
		// pass.
		dual, zz := 0.0, 0.0
		for v := 0; v < n; v++ {
			if count[v] == 0 {
				zNext[v] = z[v]
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
			zNext[v] = zi
			d := zi - z[v]
			dual += count[v] * d * d
			zz += count[v] * zi * zi
		}
		z, zNext = zNext, z
		// Dual updates and the primal residual; ‖y‖ and ‖u‖ ride along.
		primal, yy, uu := 0.0, 0.0, 0.0
		for ti, y := range fs.y {
			r := y - z[fs.vars[ti]]
			u := fs.u[ti] + r
			fs.u[ti] = u
			primal += r * r
			yy += y * y
			uu += u * u
		}
		epsPri, epsDual := opts.Epsilon, opts.Epsilon
		if opts.EpsilonRel > 0 {
			epsPri += opts.EpsilonRel * math.Sqrt(math.Max(yy, zz))
			epsDual += opts.EpsilonRel * rho * math.Sqrt(uu)
		}
		if math.Sqrt(primal) < epsPri && math.Sqrt(dual)*rho < epsDual {
			iter++
			converged = true
			break
		}
	}
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

// buildFactorSet compiles the MRF into ADMM factors in slot order.
func buildFactorSet(m *MRF) *factorSet {
	nf := len(m.Potentials) + len(m.Constraints)
	fs := &factorSet{
		off:    make([]int32, 1, nf+1),
		konst:  make([]float64, 0, nf),
		weight: make([]float64, 0, nf),
		norm2:  make([]float64, 0, nf),
		kind:   make([]uint8, 0, nf),
	}
	add := func(terms []LinTerm, konst float64, kind uint8, weight float64) {
		n2 := 0.0
		for _, t := range terms {
			fs.vars = append(fs.vars, int32(t.Var))
			fs.coefs = append(fs.coefs, t.Coef)
			n2 += t.Coef * t.Coef
		}
		fs.off = append(fs.off, int32(len(fs.vars)))
		fs.konst = append(fs.konst, konst)
		fs.weight = append(fs.weight, weight)
		fs.norm2 = append(fs.norm2, n2)
		fs.kind = append(fs.kind, kind)
	}
	for _, p := range m.Potentials {
		kind := uint8(kindHinge)
		if p.Squared {
			kind = kindSquared
		}
		add(p.Terms, p.Const, kind, p.Weight)
	}
	for _, c := range m.Constraints {
		kind := uint8(kindConsEQ)
		if c.Cmp == LE {
			kind = kindConsLE
		}
		add(c.Terms, c.Const, kind, 0)
	}
	fs.y = make([]float64, len(fs.vars))
	fs.u = make([]float64, len(fs.vars))
	return fs
}

// restoreDuals copies captured duals into the count factors starting
// at base. Slots that are nil, out of range or whose length no longer
// matches the factor keep the zero dual.
func (fs *factorSet) restoreDuals(slots [][]float64, base, count int) {
	for slot, u := range slots {
		if slot >= count || u == nil {
			continue
		}
		if lo, hi := fs.off[base+slot], fs.off[base+slot+1]; len(u) == int(hi-lo) {
			copy(fs.u[lo:hi], u)
		}
	}
}

// dualSlots cuts the dual windows of the count factors starting at
// base out of buf, a copy of fs.u.
func (fs *factorSet) dualSlots(buf []float64, base, count int) [][]float64 {
	out := make([][]float64, count)
	for slot := range out {
		lo, hi := fs.off[base+slot], fs.off[base+slot+1]
		out[slot] = buf[lo:hi:hi]
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
