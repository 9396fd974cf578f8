package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"schemamap/internal/cover"
	"schemamap/internal/ibench"
)

// Size caps that keep one fuzz execution cheap: the chase joins body
// atoms over I, so the work grows as |I|^atoms.
const (
	fuzzMaxBytes      = 1 << 14
	fuzzMaxTuples     = 64
	fuzzMaxCandidates = 8
	fuzzMaxBodyAtoms  = 3
	fuzzMaxHeadAtoms  = 4
)

// FuzzScenarioSolve drives an uploaded scenario — the untrusted input
// of mapserve's POST /sessions — through decode, Prepare, and the
// collective and greedy solves. Any input that decodes must prepare
// the evidence cover.AnalyzeReference computes (Pairs, Errors, KTuples
// and Firings, bit for bit) both cold and through the streaming
// tracker's build, and solve without a panic or an error, to a
// selection over every candidate with a finite objective. The seed
// corpus lives in testdata/fuzz/FuzzScenarioSolve; run with
//
//	go test -run '^$' -fuzz FuzzScenarioSolve -fuzztime 30s ./internal/core/
func FuzzScenarioSolve(f *testing.F) {
	cfg := ibench.DefaultConfig(2, 1)
	cfg.Rows = 3
	cfg.PiCorresp = 25
	sc, err := ibench.Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := ibench.MarshalScenario(sc)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > fuzzMaxBytes {
			return
		}
		sc, err := ibench.UnmarshalScenario(b)
		if err != nil {
			return
		}
		if sc.I.Len() > fuzzMaxTuples || sc.J.Len() > fuzzMaxTuples || len(sc.Candidates) > fuzzMaxCandidates {
			return
		}
		for _, d := range sc.Candidates {
			if len(d.Body) > fuzzMaxBodyAtoms || len(d.Head) > fuzzMaxHeadAtoms {
				return
			}
		}
		p := NewProblem(sc.I, sc.J, sc.Candidates)
		want := cover.AnalyzeReference(sc.I, p.JIndex(), sc.Candidates, p.CoverOptions)
		streamed := NewProblem(sc.I, sc.J, sc.Candidates)
		streamed.PrepareStreaming(1)
		for _, c := range []struct {
			name string
			p    *Problem
		}{{"cold", p}, {"streaming", streamed}} {
			for i, got := range c.p.Analyses() {
				if !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("%s candidate %d (%s): analysis\n got  %+v\n want %+v", c.name, i, sc.Candidates[i], got, want[i])
				}
			}
		}
		for _, s := range []Solver{CollectiveSolver{}, GreedySolver{}} {
			sel, err := s.Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if len(sel.Chosen) != len(sc.Candidates) {
				t.Fatalf("%s: %d selection entries for %d candidates", s.Name(), len(sel.Chosen), len(sc.Candidates))
			}
			if f := sel.Objective.Total(); math.IsNaN(f) || math.IsInf(f, 0) {
				t.Fatalf("%s: objective %v", s.Name(), f)
			}
		}
	})
}
