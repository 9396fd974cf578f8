package psl

import (
	"fmt"
	"testing"
)

// benchMRF builds a chain-structured MRF with n variables and ~2n
// potentials plus hard constraints, resembling the selection encoding.
func benchMRF(n int) *MRF {
	m := NewMRF()
	for i := 0; i < n; i++ {
		v := m.Var(fmt.Sprintf("x%d", i))
		m.AddPotential(Potential{Weight: 1, Terms: []LinTerm{{Var: v, Coef: -1}}, Const: 1})
		m.AddPotential(Potential{Weight: 0.5, Terms: []LinTerm{{Var: v, Coef: 1}}})
		if i > 0 {
			prev := m.VarNamed(fmt.Sprintf("x%d", i-1))
			_ = m.AddConstraint(Constraint{
				Terms: []LinTerm{{Var: v, Coef: 1}, {Var: prev, Coef: -1}},
				Const: -0.5,
				Cmp:   LE,
			})
		}
	}
	return m
}

func BenchmarkADMM100(b *testing.B) {
	m := benchMRF(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveMAP(m, DefaultADMMOptions()); err != nil {
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
		if _, err := SolveMAP(m, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkADMMSelection solves an M-sized selection-shaped MRF (76
// candidates, 1,000 tuples), whose Explained variables the presolve
// eliminates; the chain MRFs above have nothing to eliminate.
func BenchmarkADMMSelection(b *testing.B) {
	m := selectionMRF(76, 1000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveMAP(m, DefaultADMMOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGrounding(b *testing.B) {
	p := NewProgram()
	p.MustAddPredicate("Covers", 2, Closed)
	p.MustAddPredicate("In", 1, Open)
	p.MustAddPredicate("Explained", 1, Open)
	p.MustAddRule("1.0: Covers(M, T) & In(M) -> Explained(T)")
	db := NewDatabase()
	for m := 0; m < 50; m++ {
		for t := 0; t < 20; t++ {
			db.Observe("Covers", []string{fmt.Sprintf("m%d", m), fmt.Sprintf("t%d", t)}, 0.5)
		}
		db.AddTarget("In", fmt.Sprintf("m%d", m))
	}
	for t := 0; t < 20; t++ {
		db.AddTarget("Explained", fmt.Sprintf("t%d", t))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Ground(p, db); err != nil {
			b.Fatal(err)
		}
	}
}
