package bench

import (
	"strings"
	"testing"
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
