package bench

import (
	"context"
	"path/filepath"
	"testing"
)

// The checked-in BENCH_*.json files record deterministic outcomes
// next to their timings: every solver's objective and iteration
// counts on a (trace, solver, scale, seed) are functions of the code
// alone. Replaying the solve, stream and churn traces at S (and M
// unless -short), and the throughput trace at L (unless -short), at
// the recorded parallelism must reproduce them exactly, so a change
// that claims bit-identical objectives is checked here rather than by
// hand.
func TestRecordedObjectivesReproduce(t *testing.T) {
	type key struct {
		trace, solver, scale string
		seed                 int64
	}
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no recorded BENCH files (%v)", err)
	}
	recorded := map[key]Row{}
	for _, path := range paths {
		rep, err := LoadReport(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Rows {
			recorded[key{r.Trace, r.Solver, r.Scale, r.Seed}] = r
		}
	}
	specs := Scales()[:2] // S, M
	if testing.Short() {
		specs = specs[:1]
	}
	replays := map[string][]Spec{traceSolve: specs, traceStream: specs, traceChurn: specs}
	if !testing.Short() {
		replays[traceThroughput] = throughputScales()[:1] // L
	}
	matched := 0
	for _, kind := range Traces() {
		if replays[kind] == nil {
			continue
		}
		rows, err := Replay(context.Background(), kind, replays[kind], Options{Parallelism: 2})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for _, got := range rows {
			k := key{got.Trace, got.Solver, got.Scale, got.Seed}
			want, ok := recorded[k]
			if !ok {
				t.Errorf("%+v: no recorded row", k)
				continue
			}
			matched++
			if got.Objective != want.Objective || got.Iterations != want.Iterations ||
				got.WarmObjective != want.WarmObjective || got.WarmIterations != want.WarmIterations ||
				got.Skipped != want.Skipped {
				t.Errorf("%+v: replayed objective %v, iterations %d, warm %v/%d, skipped %q; recorded %v, %d, %v/%d, %q",
					k, got.Objective, got.Iterations, got.WarmObjective, got.WarmIterations, got.Skipped,
					want.Objective, want.Iterations, want.WarmObjective, want.WarmIterations, want.Skipped)
			}
		}
	}
	t.Logf("%d replayed rows compared with the recorded ones", matched)
}
