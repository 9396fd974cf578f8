// Package seqbump exercises the mutation-sequence check on a minimal
// Problem shaped like core's: tracked evidence fields, a mutSeq
// counter, and a second counter that is not the mutation sequence.
package seqbump

import "sync/atomic"

type set struct{}

func (set) Add(int)    {}
func (set) Remove(int) {}
func (set) Len() int   { return 0 }

type Problem struct {
	I          set
	J          set
	Candidates []int
	incidence  []int
	jidx       map[int]int
	mutSeq     atomic.Uint64
	epoch      atomic.Uint64
}

// OK: mutation then bump.
func (p *Problem) AppendTarget(t int) uint64 {
	p.I.Add(t)
	return p.mutSeq.Add(1)
}

// OK: a Load after the bump is fine.
func (p *Problem) AddCandidates(cs []int) uint64 {
	p.Candidates = append(p.Candidates, cs...)
	p.mutSeq.Add(1)
	return p.mutSeq.Load()
}

// Flagged: only mutSeq bumps count, not another counter.
func (p *Problem) Reindex(t int) { // want "mutates Problem evidence state but never bumps mutSeq"
	p.jidx[t] = t
	p.epoch.Add(1)
}

// Flagged: returning the loaded sequence does not move it.
func (p *Problem) Restamp(t int) uint64 { // want "mutates Problem evidence state but never bumps mutSeq"
	p.J.Add(t)
	return p.mutSeq.Load()
}

// OK: early error return before any mutation needs no bump.
func (p *Problem) RemoveTarget(t int) error {
	if t < 0 {
		return errNegative
	}
	p.J.Remove(t)
	p.mutSeq.Add(1)
	return nil
}

// Flagged: mutates and never bumps.
func (p *Problem) Forget(t int) { // want "mutates Problem evidence state but never bumps mutSeq"
	p.J.Remove(t)
}

// Flagged: one return path escapes between the mutation and the bump.
func (p *Problem) Risky(t int, bail bool) error {
	p.I.Add(t)
	if bail {
		return errNegative // want "return path after Problem mutation without a mutSeq bump"
	}
	p.mutSeq.Add(1)
	return nil
}

// OK: reading tracked fields is not a mutation.
func (p *Problem) NumTargets() int {
	return p.I.Len() + len(p.Candidates)
}

// OK: unexported methods are the internal plumbing bumped by their
// exported callers.
func (p *Problem) applyRaw(t int) {
	p.incidence = append(p.incidence, t)
}

var errNegative = errorString("negative")

type errorString string

func (e errorString) Error() string { return string(e) }
