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
// in MRF.Potentials / MRF.Constraints, and the rho they are scaled by. Captured via ADMMOptions.CaptureState, restored
// via ADMMOptions.Warm. The two dual blocks are kept separate because
// an incrementally grown MRF appends to both slices independently; a
// single factor-order block would misalign after growth.
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
	mrf   *MRF
}

// Value returns the inferred truth value of a ground open atom, or 0
// when the atom never appeared in a ground potential or constraint.
func (s *Solution) Value(pred string, args ...string) float64 {
	i := s.mrf.VarNamed(atomKey(pred, args))
	if i < 0 {
		return 0
	}
	return s.X[i]
}

// Factor kinds, in the order localStep dispatches on them.
const (
	kindHinge   = iota // weight·max(0, aᵀy + c)
	kindSquared        // weight·max(0, aᵀy + c)²
	kindConsLE         // aᵀy + c ≤ 0
	kindConsEQ         // aᵀy + c = 0
)

// factorSet is the ground program in struct-of-arrays form: one ADMM
// block per potential (first numPot) or hard constraint, with terms
// flattened into contiguous CSR arrays. The hot loops touch y/u/coefs
// /vars sequentially per factor instead of chasing per-factor slice
// headers, which roughly halves the per-iteration wall time on
// cache-bound problems; the arithmetic order per factor and per
// variable is unchanged, so iterates are bit-identical to the old
// pointer layout.
type factorSet struct {
	numPot int
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
func SolveMAP(m *MRF, opts ADMMOptions) (*Solution, error) {
	return SolveMAPContext(context.Background(), m, opts)
}

// SolveMAPContext is SolveMAP with a cancellation checkpoint every
// iteration. On cancellation it returns the partial Solution at the
// current iterate (Converged=false) together with ctx.Err(), so
// callers with a soft compute budget can keep the best-so-far state
// while callers wanting a hard stop propagate the error.
//
// The three steps of each iteration — factor-local updates, the
// consensus average, and the dual update — are each embarrassingly
// parallel (all local problems are independent given the
// consensus), so with opts.Parallelism > 1 they
// run on a persistent worker pool. The consensus step is sharded by
// variable over a precomputed factor-incidence CSR, so no two workers
// ever write the same consensus entry.
func SolveMAPContext(ctx context.Context, m *MRF, opts ADMMOptions) (*Solution, error) {
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
	numPot := len(m.Potentials)
	fs := buildFactorSet(m)
	numFactors := fs.len()
	if w := opts.Warm; w != nil {
		for pi, u := range w.PotU {
			if pi >= numPot || u == nil {
				continue
			}
			if lo, hi := fs.off[pi], fs.off[pi+1]; len(u) == int(hi-lo) {
				copy(fs.u[lo:hi], u)
			}
		}
		for ci, u := range w.ConsU {
			fi := numPot + ci
			if fi >= numFactors || u == nil {
				continue
			}
			if lo, hi := fs.off[fi], fs.off[fi+1]; len(u) == int(hi-lo) {
				copy(fs.u[lo:hi], u)
			}
		}
	}
	captureState := func(rho float64) *ADMMState {
		st := &ADMMState{
			Z:     append([]float64(nil), z...),
			PotU:  make([][]float64, numPot),
			ConsU: make([][]float64, numFactors-numPot),
			Rho:   rho,
		}
		for fi := 0; fi < numFactors; fi++ {
			u := append([]float64(nil), fs.u[fs.off[fi]:fs.off[fi+1]]...)
			if fi < numPot {
				st.PotU[fi] = u
			} else {
				st.ConsU[fi-numPot] = u
			}
		}
		return st
	}
	if numFactors == 0 {
		sol := &Solution{X: z, Objective: 0, Converged: true, mrf: m}
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
	for iter = 0; iter < opts.MaxIterations; iter++ {
		select {
		case <-ctx.Done():
			return &Solution{
				X:          z,
				Objective:  m.Objective(z),
				Iterations: iter,
				Converged:  false,
				mrf:        m,
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
			dp := 0.0
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
			}
			dualPart[chunk] = dp
			if rel {
				zn := 0.0
				for v := lo; v < hi; v++ {
					zn += count[v] * zNew[v] * zNew[v]
				}
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
			pp := 0.0
			for ti := tlo; ti < thi; ti++ {
				r := fs.y[ti] - zCons[fs.vars[ti]]
				fs.u[ti] += r
				pp += r * r
			}
			primalPart[chunk] = pp
			if rel {
				yn, un := 0.0, 0.0
				for ti := tlo; ti < thi; ti++ {
					yn += fs.y[ti] * fs.y[ti]
					un += fs.u[ti] * fs.u[ti]
				}
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
			break
		}
	}
	sol := &Solution{
		X:          z,
		Objective:  m.Objective(z),
		Iterations: iter,
		Converged:  iter < opts.MaxIterations,
		mrf:        m,
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

func buildFactorSet(m *MRF) *factorSet {
	nf := len(m.Potentials) + len(m.Constraints)
	fs := &factorSet{
		numPot: len(m.Potentials),
		off:    make([]int32, 1, nf+1),
		konst:  make([]float64, 0, nf),
		weight: make([]float64, 0, nf),
		norm2:  make([]float64, 0, nf),
		kind:   make([]uint8, 0, nf),
	}
	push := func(terms []LinTerm, konst float64, kind uint8, weight float64) {
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
		push(p.Terms, p.Const, kind, p.Weight)
	}
	for _, c := range m.Constraints {
		kind := uint8(kindConsEQ)
		if c.Cmp == LE {
			kind = kindConsLE
		}
		push(c.Terms, c.Const, kind, 0)
	}
	fs.y = make([]float64, len(fs.vars))
	fs.u = make([]float64, len(fs.vars))
	return fs
}

// localStep minimises factor fi's local objective
// φ(y) + ρ/2·Σ (y_k − z_k + u_k)² in closed form (Bach et al. 2017).
func (fs *factorSet) localStep(fi int, z []float64, rho float64) {
	lo, hi := fs.off[fi], fs.off[fi+1]
	// v = z − u is the unconstrained minimiser of the proximal term;
	// it is computed into the local copy's storage.
	v := fs.y[lo:hi]
	coefs := fs.coefs[lo:hi]
	u := fs.u[lo:hi]
	vars := fs.vars[lo:hi]
	for k, vi := range vars {
		v[k] = z[vi] - u[k]
	}
	lin := func() float64 {
		s := fs.konst[fi]
		for k, c := range coefs {
			s += c * v[k]
		}
		return s
	}
	switch fs.kind[fi] {
	case kindConsLE, kindConsEQ:
		// Projection onto {aᵀy + c ≤ 0} (or = 0).
		val := lin()
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
		val := lin()
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
	if lin() <= 0 {
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
	t := lin() / fs.norm2[fi]
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
