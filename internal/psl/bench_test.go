package psl

import (
	"context"
	"fmt"
	"testing"
)

// benchMRF builds a chain-structured MRF with n variables and ~2n
// potentials plus hard constraints, resembling the selection encoding.
func benchMRF(n int) *MRF {
	m := NewMRF()
	prev := -1
	for i := 0; i < n; i++ {
		v := m.Var(fmt.Sprintf("x%d", i))
		m.AddPotential(Potential{Weight: 1, Terms: []LinTerm{{Var: v, Coef: -1}}, Const: 1})
		m.AddPotential(Potential{Weight: 0.5, Terms: []LinTerm{{Var: v, Coef: 1}}})
		if prev >= 0 {
			_ = m.AddConstraint(Constraint{
				Terms: []LinTerm{{Var: v, Coef: 1}, {Var: prev, Coef: -1}},
				Const: -0.5,
				Cmp:   LE,
			})
		}
		prev = v
	}
	return m
}

func BenchmarkADMM100(b *testing.B) {
	m := benchMRF(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveMAP(context.Background(), m, DefaultADMMOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkADMM1000(b *testing.B) {
	m := benchMRF(1000)
	opts := DefaultADMMOptions()
	opts.MaxIterations = 500
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveMAP(context.Background(), m, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkADMMSelection solves an M-sized selection-shaped MRF (76
// candidates, 1,000 tuple hinges), the hinge form the collective
// solver grounds.
func BenchmarkADMMSelection(b *testing.B) {
	m := selectionMRF(76, 1000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveMAP(context.Background(), m, DefaultADMMOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
