package psl

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// randomMRF builds a dense-ish random MRF mixing linear and squared
// hinges with hard constraints, exercising every factor kind.
func randomMRF(n, pots int, seed int64) *MRF {
	rng := rand.New(rand.NewSource(seed))
	m := NewMRF()
	for i := 0; i < n; i++ {
		m.Var(varName(i))
	}
	for p := 0; p < pots; p++ {
		k := 1 + rng.Intn(3)
		terms := make([]LinTerm, 0, k)
		seen := map[int]bool{}
		for len(terms) < k {
			v := rng.Intn(n)
			if seen[v] {
				continue
			}
			seen[v] = true
			c := rng.Float64()*2 - 1
			terms = append(terms, LinTerm{Var: v, Coef: c})
		}
		m.AddPotential(Potential{
			Weight:  0.1 + rng.Float64(),
			Squared: rng.Intn(2) == 0,
			Terms:   terms,
			Const:   rng.Float64() - 0.5,
		})
		if p%7 == 0 {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				_ = m.AddConstraint(Constraint{
					Terms: []LinTerm{{Var: a, Coef: 1}, {Var: b, Coef: -1}},
					Const: -0.9,
					Cmp:   LE,
				})
			}
		}
	}
	return m
}

func varName(i int) string {
	return atomKey("X", []string{string(rune('a' + i%26)), string(rune('0' + i/26%10)), string(rune('A' + i/260))})
}

// TestParallelADMMMatchesSerial checks the load-bearing claim behind
// defaulting collective inference to parallel ADMM: iterates are
// bit-identical at every parallelism level, because the work is
// chunked independently of the worker count and partial residuals are
// reduced in chunk order.
func TestParallelADMMMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    func() *MRF
	}{
		{"chain400", func() *MRF { return benchMRF(400) }},
		{"random", func() *MRF { return randomMRF(150, 600, 42) }},
		// Selection-shaped: the presolve eliminates every Explained
		// variable, so serial and parallel also agree on the recovered
		// values.
		{"selection", func() *MRF { return selectionMRF(76, 1000, 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultADMMOptions()
			opts.MaxIterations = 800
			opts.Parallelism = 1
			serial, serialErr := SolveMAP(context.Background(), tc.m(), opts)

			for _, par := range []int{2, 4, 7} {
				opts.Parallelism = par
				got, gotErr := SolveMAP(context.Background(), tc.m(), opts)
				if (serialErr == nil) != (gotErr == nil) {
					t.Fatalf("parallelism %d: err %v, serial err %v", par, gotErr, serialErr)
				}
				if got.Iterations != serial.Iterations {
					t.Errorf("parallelism %d: %d iterations, serial %d", par, got.Iterations, serial.Iterations)
				}
				if got.Objective != serial.Objective {
					t.Errorf("parallelism %d: objective %v, serial %v (diff %g)",
						par, got.Objective, serial.Objective, math.Abs(got.Objective-serial.Objective))
				}
				for i := range got.X {
					if got.X[i] != serial.X[i] {
						t.Fatalf("parallelism %d: X[%d]=%v, serial %v", par, i, got.X[i], serial.X[i])
					}
				}
			}
		})
	}
}

// TestParallelADMMSeeded covers the seeded initial point (tie
// breaking) under parallelism.
func TestParallelADMMSeeded(t *testing.T) {
	opts := DefaultADMMOptions()
	opts.Seed = 99
	opts.MaxIterations = 500
	opts.Parallelism = 1
	serial, _ := SolveMAP(context.Background(), randomMRF(80, 300, 7), opts)
	opts.Parallelism = 4
	par, _ := SolveMAP(context.Background(), randomMRF(80, 300, 7), opts)
	if par.Objective != serial.Objective || par.Iterations != serial.Iterations {
		t.Fatalf("seeded run diverged: parallel (obj=%v, iter=%d) vs serial (obj=%v, iter=%d)",
			par.Objective, par.Iterations, serial.Objective, serial.Iterations)
	}
}

// TestADMMConsensusAllocs guards the double-buffering fix: the
// iteration loop must not allocate per iteration (the old code copied
// the consensus snapshot with append — plus a fresh accumulator —
// every iteration). Setup (factors, CSR, buffers) allocates a bounded
// amount, so the guard compares short and long runs of the same
// problem: extra iterations must cost ~no extra allocations.
func TestADMMConsensusAllocs(t *testing.T) {
	m := benchMRF(200)
	opts := DefaultADMMOptions()
	opts.Epsilon = 1e-300 // never converges: runs exactly MaxIterations
	solveAllocs := func(iters int) float64 {
		o := opts
		o.MaxIterations = iters
		return testing.AllocsPerRun(5, func() {
			// Infeasibility at loose tolerance is expected on truncated
			// runs; only a nil solution is a real failure.
			if sol, err := SolveMAP(context.Background(), m, o); sol == nil {
				t.Fatal(err)
			}
		})
	}
	short := solveAllocs(20)
	long := solveAllocs(220)
	if extra := long - short; extra > 20 {
		t.Fatalf("200 extra iterations allocated %v times (short=%v, long=%v); consensus loop is allocating per iteration", extra, short, long)
	}
}
