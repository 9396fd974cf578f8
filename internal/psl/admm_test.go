package psl

import (
	"context"
	"math"
	"math/rand"
	"slices"
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

// TestADMMSeededStart checks the seeded initial point: the seed moves
// the start (the first iterate differs from the unseeded one), a
// seeded solve is reproducible, and the optimum is the unseeded one
// (the problem is convex).
func TestADMMSeededStart(t *testing.T) {
	solve := func(m *MRF, seed int64, iters int, eps float64) *Solution {
		t.Helper()
		opts := DefaultADMMOptions()
		opts.Seed = seed
		opts.MaxIterations = iters
		opts.Epsilon = eps
		sol, _ := SolveMAP(context.Background(), m, opts)
		if sol == nil {
			t.Fatalf("seed %d: nil solution", seed)
		}
		return sol
	}
	first, seededFirst := solve(randomMRF(80, 300, 7), 0, 1, 0), solve(randomMRF(80, 300, 7), 99, 1, 0)
	if slices.Equal(first.X, seededFirst.X) {
		t.Error("seed 99 left the first iterate unchanged")
	}
	a, b := solve(randomMRF(80, 300, 7), 99, 500, 0), solve(randomMRF(80, 300, 7), 99, 500, 0)
	if a.Objective != b.Objective || a.Iterations != b.Iterations || !slices.Equal(a.X, b.X) {
		t.Fatalf("seeded runs diverged: (obj=%v, iter=%d) vs (obj=%v, iter=%d)",
			a.Objective, a.Iterations, b.Objective, b.Iterations)
	}
	cold, seeded := solve(warmTestMRF(), 0, 5000, 1e-8), solve(warmTestMRF(), 99, 5000, 1e-8)
	if math.Abs(seeded.Objective-cold.Objective) > 1e-6 {
		t.Errorf("seeded objective %v, unseeded %v", seeded.Objective, cold.Objective)
	}
}

// TestADMMConsensusAllocs guards the iteration loop against
// per-iteration allocations (a consensus snapshot copy, a fresh
// accumulator, or a phase closure that escapes to the heap). Setup
// (factors, CSR, buffers) allocates a bounded amount, so the guard
// compares short and long runs of the same problem: extra iterations
// must cost ~no extra allocations. The selection-shaped MRF is the
// hinge form the collective solver grounds at M.
func TestADMMConsensusAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *MRF
	}{
		{"chain200", benchMRF(200)},
		{"selection", selectionMRF(76, 1000, 4)},
	} {
		opts := DefaultADMMOptions()
		opts.Epsilon = 1e-300 // never converges: runs exactly MaxIterations
		solveAllocs := func(iters int) float64 {
			o := opts
			o.MaxIterations = iters
			return testing.AllocsPerRun(5, func() {
				// Infeasibility at loose tolerance is expected on
				// truncated runs; only a nil solution is a real failure.
				if sol, err := SolveMAP(context.Background(), tc.m, o); sol == nil {
					t.Fatal(err)
				}
			})
		}
		short := solveAllocs(20)
		long := solveAllocs(220)
		if extra := long - short; extra > 20 {
			t.Errorf("%s: 200 extra iterations allocated %v times (short=%v, long=%v); the ADMM loop is allocating per iteration", tc.name, extra, short, long)
		}
	}
}
