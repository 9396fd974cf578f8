package cover

import (
	"math/rand"
	"testing"

	"schemamap/internal/chase"
	"schemamap/internal/data"
	"schemamap/internal/tgd"
)

// randomScenario builds a small random source instance, target data
// and candidate set exercising nulls, joins and noise.
func randomScenario(rng *rand.Rand) (I, J *data.Instance, cands tgd.Mapping) {
	I = data.NewInstance()
	vals := []string{"a", "b", "c", "d"}
	for i := 0; i < 4+rng.Intn(6); i++ {
		I.Add(data.NewTuple("r", vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]))
	}
	cands = tgd.Mapping{
		tgd.MustParse("r(x,y) -> s(x,y)"),
		tgd.MustParse("r(x,y) -> s(x,E)"),
		tgd.MustParse("r(x,y) -> s(x,E) & u(E,y)"),
		tgd.MustParse("r(x,y) -> u(E,y)"),
	}
	// J: chase a random subset of candidates, ground, and perturb.
	var gold tgd.Mapping
	for _, d := range cands {
		if rng.Intn(2) == 0 {
			gold = append(gold, d)
		}
	}
	if len(gold) == 0 {
		gold = cands[:1]
	}
	J = chase.Chase(I, gold, nil).Instance.Ground("j")
	// Random tuple injections/removals.
	if rng.Intn(2) == 0 {
		J.Add(data.NewTuple("s", "zz", "ww"))
	}
	all := J.All()
	if len(all) > 0 && rng.Intn(2) == 0 {
		J.Remove(all[rng.Intn(len(all))])
	}
	return I, J, cands
}

// Property: covers values are in (0,1]; errors are a non-negative
// integer bounded by |K_θ|; corroborated covers never exceed naive
// covers.
func TestCoverMeasureProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		I, J, cands := randomScenario(rng)
		jidx := IndexJ(J)
		strict := Analyze(I, jidx, cands, DefaultOptions())
		naiveOpts := DefaultOptions()
		naiveOpts.Corroboration = false
		naive := Analyze(I, jidx, cands, naiveOpts)
		for i := range strict {
			s, n := &strict[i], &naive[i]
			if s.Errors < 0 || s.Errors != float64(int(s.Errors)) || int(s.Errors) > s.KTuples {
				t.Fatalf("trial %d cand %d: errors = %v of %d tuples", trial, i, s.Errors, s.KTuples)
			}
			for _, pr := range s.Pairs {
				j, c := int(pr.J), pr.Cov
				if c <= 0 || c > 1+1e-9 {
					t.Fatalf("trial %d cand %d: covers[%d] = %v out of (0,1]", trial, i, j, c)
				}
				if c > n.CoversOf(j)+1e-9 {
					t.Fatalf("trial %d cand %d tuple %d: corroborated %v > naive %v",
						trial, i, j, c, n.CoversOf(j))
				}
			}
			// Errors are semantics-independent.
			if s.Errors != n.Errors {
				t.Fatalf("trial %d cand %d: errors differ across semantics", trial, i)
			}
		}
	}
}

// Property: for full tgds the measures are binary and agree with
// Eq. (4): covers(t)=1 iff t ∈ K_θ ∩ J, errors = |K_θ − J|.
func TestFullTGDEq4Property(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		I := data.NewInstance()
		vals := []string{"a", "b", "c"}
		for i := 0; i < 3+rng.Intn(5); i++ {
			I.Add(data.NewTuple("r", vals[rng.Intn(3)], vals[rng.Intn(3)]))
		}
		J := data.NewInstance()
		for i := 0; i < 3+rng.Intn(5); i++ {
			J.Add(data.NewTuple("s", vals[rng.Intn(3)], vals[rng.Intn(3)]))
		}
		d := tgd.MustParse("r(x,y) -> s(y,x)")
		an := AnalyzeOne(0, d, I, J, DefaultOptions())
		K := chase.ChaseOne(I, d, nil).Instance

		wantErrors := 0
		for _, tu := range K.All() {
			if !J.Has(tu) {
				wantErrors++
			}
		}
		if an.Errors != float64(wantErrors) {
			t.Fatalf("trial %d: errors = %v, want %d", trial, an.Errors, wantErrors)
		}
		jidx := IndexJ(J)
		for j, tu := range jidx.Tuples {
			want := 0.0
			if K.Has(tu) {
				want = 1.0
			}
			if got := an.CoversOf(j); got != want {
				t.Fatalf("trial %d: covers(%v) = %v, want %v", trial, tu, got, want)
			}
		}
	}
}

// Property: adding tuples to J never decreases any covers value and
// never increases errors.
func TestCoverMonotoneInJ(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		I, J, cands := randomScenario(rng)
		bigJ := J.Clone()
		// Add the full chase of all candidates, grounded: maximal J.
		bigJ.Union(chase.Chase(I, cands, nil).Instance.Ground("x"))

		jidx := IndexJ(J)
		bigIdx := IndexJ(bigJ)
		small := Analyze(I, jidx, cands, DefaultOptions())
		big := Analyze(I, bigIdx, cands, DefaultOptions())
		for i := range small {
			if big[i].Errors > small[i].Errors {
				t.Fatalf("trial %d cand %d: errors grew with J (%v -> %v)",
					trial, i, small[i].Errors, big[i].Errors)
			}
			for _, pr := range small[i].Pairs {
				bj := bigIdx.IndexOf(jidx.Tuples[pr.J])
				if bj < 0 {
					t.Fatalf("tuple lost in union")
				}
				if big[i].CoversOf(bj) < pr.Cov-1e-9 {
					t.Fatalf("trial %d cand %d: covers dropped with larger J (%v -> %v)",
						trial, i, pr.Cov, big[i].CoversOf(bj))
				}
			}
		}
	}
}

// The per-block label masks must give every block tuple the degree the
// label-comparing reference gives it, under every mapped set. Blocks
// of 63 to 130 tuples span two and three mask words, so a label held
// on both sides of a word boundary is corroborated across it; labels
// also repeat inside a tuple and coincide with constant names.
func TestBlockNullsMatchLabelReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var bn blockNulls
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(6)
		if trial%4 == 3 {
			n = 63 + rng.Intn(68)
		}
		labels := 1 + rng.Intn(2*n)
		block := make([]data.Tuple, n)
		for i := range block {
			args := make([]data.Value, rng.Intn(4))
			for p := range args {
				name := "N" + string(rune('0'+rng.Intn(labels)%10)) + string(rune('a'+rng.Intn(labels)/10))
				if rng.Intn(3) == 0 {
					args[p] = data.Const(name)
				} else {
					args[p] = data.NullValue(name)
				}
			}
			block[i] = data.Tuple{Rel: "r", Args: args}
		}
		bn.reset(block)
		for q := 0; q < 5; q++ {
			mapped := make([]bool, n)
			for i := range mapped {
				mapped[i] = rng.Intn(2) == 0
			}
			bn.setMapped(mapped)
			for i := range block {
				if !mapped[i] {
					continue
				}
				for _, corr := range []bool{true, false} {
					want := coverageDegree(block, i, mapped, Options{Corroboration: corr})
					if got := bn.degree(i, corr); got != want {
						t.Fatalf("trial %d, tuple %d of %d, corroboration %v: degree %v, reference %v", trial, i, n, corr, got, want)
					}
				}
			}
		}
	}
}
