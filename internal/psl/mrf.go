// Package psl holds the hinge-loss Markov random field (HL-MRF) that
// the paper's PSL program defines, and MAP inference in it by
// consensus ADMM with closed-form local updates (after Bach et al.,
// "Hinge-Loss Markov Random Fields and Probabilistic Soft Logic",
// JMLR 2017). An MRF is box-constrained variables x ∈ [0,1]ⁿ, weighted
// (optionally squared) hinge potentials, and hard linear constraints;
// SolveMAP minimises the potentials subject to the constraints.
//
// internal/core builds the mapping-selection MRF directly and solves
// it with SolveMAP. The PSL rule language and its grounder live only
// in this package's tests, as the oracle that direct grounding must
// match.
package psl

import (
	"fmt"
	"math"
	"strings"
)

// atomKey is the variable name of a ground atom pred(args...).
func atomKey(pred string, args []string) string {
	return pred + "(" + strings.Join(args, "\x00") + ")"
}

// LinTerm is one coefficient·variable term of a linear expression over
// the MRF's variables.
type LinTerm struct {
	Var  int
	Coef float64
}

// Potential is one hinge-loss potential w·max(0, Σ coefᵢ·xᵢ + c)^p
// with p ∈ {1,2}.
type Potential struct {
	Weight  float64
	Squared bool
	Terms   []LinTerm
	Const   float64
}

// Cmp distinguishes ≤ from = in linear constraints.
type Cmp int

const (
	// LE is Σ terms + c ≤ 0.
	LE Cmp = iota
	// EQ is Σ terms + c = 0.
	EQ
)

// Constraint is one hard linear constraint over the MRF's variables.
type Constraint struct {
	Terms []LinTerm
	Const float64
	Cmp   Cmp
}

// MRF is a ground hinge-loss Markov random field over box-constrained
// variables x ∈ [0,1]ⁿ.
type MRF struct {
	varNames    []string
	varIndex    map[string]int
	Potentials  []Potential
	Constraints []Constraint
}

// NewMRF returns an empty MRF.
func NewMRF() *MRF {
	return &MRF{varIndex: make(map[string]int)}
}

// NumVars returns the number of variables.
func (m *MRF) NumVars() int { return len(m.varNames) }

// Var returns the index of the named variable, creating it if new.
func (m *MRF) Var(name string) int {
	if i, ok := m.varIndex[name]; ok {
		return i
	}
	i := len(m.varNames)
	m.varIndex[name] = i
	m.varNames = append(m.varNames, name)
	return i
}

// VarNames returns the variable names in index order (a copy).
//
//lint:testonly core and psl tests compare groundings by variable name
func (m *MRF) VarNames() []string {
	return append([]string(nil), m.varNames...)
}

// AtomVar returns the variable index of a ground open atom.
func (m *MRF) AtomVar(pred string, args ...string) int {
	return m.Var(atomKey(pred, args))
}

// AddPotential appends a hinge potential; potentials with no variable
// terms or that can never be positive are dropped.
func (m *MRF) AddPotential(p Potential) {
	if len(p.Terms) == 0 || p.Weight <= 0 {
		return
	}
	maxVal := p.Const
	for _, t := range p.Terms {
		if t.Coef > 0 {
			maxVal += t.Coef
		}
	}
	if maxVal <= 0 {
		return
	}
	m.Potentials = append(m.Potentials, p)
}

// AddConstraint appends a hard linear constraint.
func (m *MRF) AddConstraint(c Constraint) error {
	if len(c.Terms) == 0 {
		sat := c.Const <= 1e-9
		if c.Cmp == EQ {
			sat = math.Abs(c.Const) <= 1e-9
		}
		if !sat {
			return fmt.Errorf("psl: constant constraint violated (const=%g)", c.Const)
		}
		return nil
	}
	m.Constraints = append(m.Constraints, c)
	return nil
}

// Objective evaluates Σ potentials at x (ignoring constraints).
func (m *MRF) Objective(x []float64) float64 {
	total := 0.0
	for _, p := range m.Potentials {
		v := p.Const
		for _, t := range p.Terms {
			v += t.Coef * x[t.Var]
		}
		if v <= 0 {
			continue
		}
		if p.Squared {
			total += p.Weight * v * v
		} else {
			total += p.Weight * v
		}
	}
	return total
}

// Feasible reports whether x satisfies all hard constraints within tol.
func (m *MRF) Feasible(x []float64, tol float64) bool {
	for _, c := range m.Constraints {
		v := c.Const
		for _, t := range c.Terms {
			v += t.Coef * x[t.Var]
		}
		if c.Cmp == LE && v > tol {
			return false
		}
		if c.Cmp == EQ && math.Abs(v) > tol {
			return false
		}
	}
	return true
}
