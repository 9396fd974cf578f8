package bench

import (
	"strings"
	"testing"
	"time"
)

// Each row gate fires on exactly the rows its predicate selects.
func TestCheckGates(t *testing.T) {
	stream := Row{Trace: traceStream, Solver: "greedy", Scale: "M", Steps: 8, Objective: 10, WarmObjective: 10,
		EvidenceIdentical: true, WarmReproducible: true, Speedup: 3}
	serveRow := Row{Trace: traceServe, Solver: "greedy", Scale: "S", Solves: 4, CacheHitRatio: 0.5}
	tput := Row{Trace: traceThroughput, Solver: "sharded-greedy", Scale: "L", NormalizedThroughput: 500, PeakRSSMB: 400}
	ok := []Row{stream, serveRow, tput}
	if err := Check(ok, 2); err != nil {
		t.Fatalf("clean rows: %v", err)
	}
	with := func(r Row, edit func(*Row)) []Row {
		edit(&r)
		return []Row{r}
	}
	for name, tc := range map[string]struct {
		rows []Row
		want string
	}{
		"evidence":     {with(stream, func(r *Row) { r.EvidenceIdentical = false }), "evidence diverged"},
		"reproducible": {with(stream, func(r *Row) { r.WarmReproducible = false }), "did not reproduce"},
		"warm>cold":    {with(stream, func(r *Row) { r.WarmObjective = 11 }), "worse than cold"},
		"speedup":      {with(stream, func(r *Row) { r.Speedup = 1.5 }), "floor 2x"},
		"speedup-skip": {with(stream, func(r *Row) { r.Skipped = "declined" }), "gated row skipped"},
		"serve-errors": {with(serveRow, func(r *Row) { r.Errors = 1 }), "request errors"},
		"serve-cold":   {with(serveRow, func(r *Row) { r.CacheHitRatio = 0 }), "never hit"},
		"tput-floor":   {with(tput, func(r *Row) { r.NormalizedThroughput = 50 }), "below floor"},
		"tput-rss":     {with(tput, func(r *Row) { r.PeakRSSMB = 4096 }), "over budget"},
		"tput-trunc":   {with(tput, func(r *Row) { r.Truncated = true }), "truncated"},
	} {
		err := Check(tc.rows, 2)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check = %v, want an error containing %q", name, err, tc.want)
		}
	}
	// Rows outside a floor's predicate pass it.
	for name, rows := range map[string][]Row{
		"speedup off":       with(stream, func(r *Row) { r.Speedup = 0.5 }),
		"independent":       with(stream, func(r *Row) { r.Solver, r.Speedup = "independent", 0.5 }),
		"recorded serve":    with(serveRow, func(r *Row) { r.RecordedOnly, r.Errors = true, 3 }),
		"XL throughput":     with(tput, func(r *Row) { r.Scale, r.PeakRSSMB = "XL", 6000 }),
		"skipped equality":  with(Row{Trace: traceChurn, Solver: "greedy", Scale: "S"}, func(r *Row) { r.Skipped = "declined" }),
		"smaller than M":    append(with(stream, func(r *Row) { r.Scale, r.Speedup = "S", 1 }), stream),
		"cold solve trace":  with(Row{Trace: traceSolve, Solver: "greedy", Scale: "S"}, func(*Row) {}),
		"skipped solve row": with(Row{Trace: traceSolve, Solver: "exhaustive", Scale: "M"}, func(r *Row) { r.Skipped = "cap" }),
	} {
		floor := 2.0
		if name == "speedup off" {
			floor = 0
		}
		if err := Check(rows, floor); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// A stepped row's speedup compares like with like: on each side, each
// step's best time over the trials, averaged over the steps — the
// mutation plus warm solve against the cold Prepare plus solve timed
// after it. One slow moment in one trial (here a 9 ms phase) moves
// neither side; a step slow in every trial moves the warm side, and
// the floor catches it.
func TestSetTimesBestPerStep(t *testing.T) {
	ms := func(v ...float64) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x * float64(time.Millisecond))
		}
		return out
	}
	mutate := [][]time.Duration{ms(1, 1, 9), ms(9, 1, 1), ms(1, 2, 1)}
	warm := [][]time.Duration{ms(0.5, 0.5, 0.5), ms(0.5, 0.5, 0.5), ms(0.5, 9, 0.5)}
	prepare := [][]time.Duration{ms(9, 4, 4), ms(4, 9, 5), ms(4, 4, 9)}
	solve := [][]time.Duration{ms(1, 1, 1), ms(2, 1, 9), ms(1, 9, 1)}
	row := Row{Trace: traceStream, Solver: "greedy", Scale: "M", Steps: 3, EvidenceIdentical: true, WarmReproducible: true}
	row.setTimes(mutate, warm, prepare, solve)
	if row.MutateMillis != 1 || row.WarmSolveMillis != 0.5 || row.PrepareMillis != 4 || row.SolveMillis != 1 || row.Speedup != 5/1.5 {
		t.Fatalf("times mutate %g warm %g prepare %g solve %g speedup %g; want 1, 0.5, 4, 1, %g",
			row.MutateMillis, row.WarmSolveMillis, row.PrepareMillis, row.SolveMillis, row.Speedup, 5/1.5)
	}
	if err := Check([]Row{row}, 2); err != nil {
		t.Errorf("one slow moment per trial failed the floor: %v", err)
	}
	mutate = [][]time.Duration{ms(1, 1, 9), ms(1, 1, 9), ms(1, 1, 9)}
	row.setTimes(mutate, warm, prepare, solve)
	if row.MutateMillis != 11.0/3 {
		t.Fatalf("mutate %g, want %g: a step slow in every trial counts", row.MutateMillis, 11.0/3)
	}
	if err := Check([]Row{row}, 2); err == nil || !strings.Contains(err.Error(), "floor 2x") {
		t.Errorf("a step slow in every trial passed the floor: %v", err)
	}
}
