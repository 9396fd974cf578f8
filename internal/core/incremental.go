package core

// Incremental objective evaluation. The solvers' inner loops ask
// "what would F be if candidate i were flipped?" thousands of times;
// evaluating F from scratch costs O(|M|·nnz + |J|) each time. The
// Evaluator maintains the per-tuple coverage maxima and answers flip
// deltas in O(nnz(i)), falling back to a per-tuple rescan only when
// removing the candidate that attains a tuple's maximum — and that
// rescan walks the inverted incidence row of the tuple (only the
// candidates covering it), not the whole selection. All state lives
// in flat slices sized once at construction; FlipDelta and Flip
// allocate nothing.

// Evaluator tracks F(sel) under single flips.
type Evaluator struct {
	p *Problem
	// sel is the current selection.
	sel []bool
	// maxCov[j] is the maximum coverage of J tuple j over selected
	// candidates; cnt[j] counts selected candidates attaining it
	// (within eps), so removals know when a rescan is needed.
	maxCov []float64
	cnt    []int
	// linear is Σ selected (w₂·errors + w₃·size).
	linear float64
	// unexplained is Σ_j w₁·(1 − maxCov[j]) over live slots.
	unexplained float64
	// cost[i] caches each candidate's linear cost.
	cost []float64
	// seq is the problem mutation sequence the maintained state
	// reflects; using the evaluator after a lifecycle mutation panics
	// (the stale-evaluator hazard).
	seq uint64
}

const evalEps = 1e-12

// NewEvaluator builds an evaluator for the given starting selection
// (copied).
func NewEvaluator(p *Problem, sel []bool) *Evaluator {
	p.Prepare()
	n := p.NumCandidates()
	e := &Evaluator{
		p:      p,
		sel:    make([]bool, n),
		maxCov: make([]float64, p.jidx.Len()),
		cnt:    make([]int, p.jidx.Len()),
		cost:   make([]float64, n),
	}
	for i := range p.analyses {
		a := &p.analyses[i]
		e.cost[i] = p.Weights.Error*a.Errors + p.Weights.Size*float64(a.Size)
	}
	e.unexplained = p.Weights.Explain * float64(p.jidx.NumLive())
	e.seq = p.mutSeq.Load()
	for i, on := range sel {
		if on {
			e.Flip(i)
		}
	}
	return e
}

// checkSeq panics when the problem's evidence mutated since the
// evaluator was built — continuing would silently evaluate F against
// stale coverage.
func (e *Evaluator) checkSeq() {
	if e.seq != e.p.mutSeq.Load() {
		panic("core: stale Evaluator — the problem mutated after it was built; build a new Evaluator")
	}
}

// Total returns F at the current selection.
func (e *Evaluator) Total() float64 {
	e.checkSeq()
	return e.unexplained + e.linear
}

// Selection returns a copy of the current selection.
func (e *Evaluator) Selection() []bool { return append([]bool(nil), e.sel...) }

// Selected reports whether candidate i is currently selected.
func (e *Evaluator) Selected(i int) bool { return e.sel[i] }

// FlipDelta returns F(sel ⊕ i) − F(sel) without changing state.
func (e *Evaluator) FlipDelta(i int) float64 {
	e.checkSeq()
	a := &e.p.analyses[i]
	w1 := e.p.Weights.Explain
	if !e.sel[i] {
		d := e.cost[i]
		for _, pr := range a.Pairs {
			if pr.Cov > e.maxCov[pr.J]+evalEps {
				d -= w1 * (pr.Cov - e.maxCov[pr.J])
			}
		}
		return d
	}
	d := -e.cost[i]
	for _, pr := range a.Pairs {
		j := int(pr.J)
		if pr.Cov < e.maxCov[j]-evalEps {
			continue // i does not attain j's max
		}
		if e.cnt[j] > 1 {
			continue // another selected candidate also attains it
		}
		// i is the sole maximiser: removing it drops j's coverage to
		// the second best, found by rescanning j's incidence row.
		second := e.rescanMax(j, i)
		d += w1 * (e.maxCov[j] - second)
	}
	return d
}

// Flip toggles candidate i, updating all maintained state, and
// returns the applied delta.
func (e *Evaluator) Flip(i int) float64 {
	e.checkSeq()
	a := &e.p.analyses[i]
	w1 := e.p.Weights.Explain
	var delta float64
	if !e.sel[i] {
		delta = e.cost[i]
		e.linear += e.cost[i]
		for _, pr := range a.Pairs {
			j := int(pr.J)
			switch {
			case pr.Cov > e.maxCov[j]+evalEps:
				delta -= w1 * (pr.Cov - e.maxCov[j])
				e.unexplained -= w1 * (pr.Cov - e.maxCov[j])
				e.maxCov[j] = pr.Cov
				e.cnt[j] = 1
			case pr.Cov > e.maxCov[j]-evalEps && e.maxCov[j] > evalEps:
				e.cnt[j]++
			}
		}
		e.sel[i] = true
		return delta
	}
	delta = -e.cost[i]
	e.linear -= e.cost[i]
	e.sel[i] = false
	for _, pr := range a.Pairs {
		j := int(pr.J)
		if pr.Cov < e.maxCov[j]-evalEps {
			continue
		}
		if e.cnt[j] > 1 {
			e.cnt[j]--
			continue
		}
		second, scnt := e.rescanMaxCount(j)
		drop := e.maxCov[j] - second
		delta += w1 * drop
		e.unexplained += w1 * drop
		e.maxCov[j] = second
		e.cnt[j] = scnt
	}
	return delta
}

// rescanMax returns the best coverage of tuple j over selected
// candidates excluding skip, walking only j's incidence row.
func (e *Evaluator) rescanMax(j, skip int) float64 {
	cands, covs := e.p.incidence.Row(j)
	best := 0.0
	for k, i := range cands {
		if int(i) == skip || !e.sel[i] {
			continue
		}
		if c := covs[k]; c > best {
			best = c
		}
	}
	return best
}

// rescanMaxCount is rescanMax plus the attaining count, after e.sel
// has already been updated.
func (e *Evaluator) rescanMaxCount(j int) (float64, int) {
	cands, covs := e.p.incidence.Row(j)
	best, cnt := 0.0, 0
	for k, i := range cands {
		if !e.sel[i] {
			continue
		}
		c := covs[k]
		switch {
		case c > best+evalEps:
			best, cnt = c, 1
		case c > best-evalEps && best > evalEps:
			cnt++
		}
	}
	return best, cnt
}
