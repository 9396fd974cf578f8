package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"schemamap/internal/core"
)

// tinySpec is a sub-S spec so the full harness runs in well under a
// second in tests.
func tinySpec() Spec {
	return Spec{Name: "T", N: 3, Rows: 6, PiCorresp: 20, PiErrors: 10, PiUnexplained: 10, Seed: 3}
}

func TestSpecFor(t *testing.T) {
	for _, name := range []string{"S", "M", "L"} {
		s, err := SpecFor(name)
		if err != nil || s.Name != name {
			t.Fatalf("SpecFor(%s) = %+v, %v", name, s, err)
		}
	}
	if _, err := SpecFor("XXL"); err == nil {
		t.Fatal("SpecFor(XXL) should fail")
	}
}

// TestRunAllSolvers replays the solve trace over every registered
// solver on a tiny scenario and checks each report is complete.
func TestRunAllSolvers(t *testing.T) {
	rows, err := Replay(context.Background(), traceSolve, []Spec{tinySpec()}, Options{Parallelism: 2})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	reports := NewReports(rows)
	if len(reports) != len(core.Names()) {
		t.Fatalf("got %d reports, want one per registered solver (%d)", len(reports), len(core.Names()))
	}
	seen := map[string]bool{}
	for _, r := range reports {
		seen[r.Solver] = true
		if r.CalibrationMillis <= 0 {
			t.Errorf("%s: calibration missing", r.Solver)
		}
		if len(r.Rows) != 1 {
			t.Fatalf("%s: got %d rows, want 1", r.Solver, len(r.Rows))
		}
		res := r.Rows[0]
		if res.Skipped != "" {
			t.Errorf("%s skipped on tiny scenario: %s", r.Solver, res.Skipped)
			continue
		}
		if res.Trace != traceSolve || res.Scale != "T" || res.Candidates <= 0 || res.JTuples <= 0 || res.Steps != 0 {
			t.Errorf("%s: incomplete row %+v", r.Solver, res)
		}
		if res.Objective <= 0 {
			t.Errorf("%s: objective %v not positive on noised scenario", r.Solver, res.Objective)
		}
	}
	for _, name := range core.Names() {
		if !seen[name] {
			t.Errorf("registered solver %s missing from reports", name)
		}
	}
}

// Exhaustive search above the quality harness's deterministic cap is a
// skipped row, never a wall-clock-truncated one.
func TestExhaustiveCapSkipsM(t *testing.T) {
	spec, err := SpecFor("M")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Replay(context.Background(), traceSolve, []Spec{spec}, Options{Solvers: []string{"exhaustive"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Skipped == "" || rows[0].Truncated || rows[0].Objective != 0 {
		t.Fatalf("rows = %+v, want one skipped row", rows)
	}
}

func TestReportRoundTrip(t *testing.T) {
	rows, err := Replay(context.Background(), traceSolve, []Spec{tinySpec()}, Options{Solvers: []string{"greedy"}})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	reports := NewReports(rows)
	dir := t.TempDir()
	paths, err := WriteReports(dir, reports)
	if err != nil {
		t.Fatalf("WriteReports: %v", err)
	}
	if len(paths) != 1 || filepath.Base(paths[0]) != "BENCH_greedy.json" {
		t.Fatalf("unexpected paths %v", paths)
	}
	got, err := LoadReport(paths[0])
	if err != nil {
		t.Fatalf("LoadReport: %v", err)
	}
	if !reflect.DeepEqual(got, reports[0]) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, reports[0])
	}
}

// An unknown solver or trace kind fails the replay up front, for every
// kind.
func TestRunUnknownSolver(t *testing.T) {
	for _, kind := range Traces() {
		if _, err := Replay(context.Background(), kind, []Spec{tinySpec()}, Options{Solvers: []string{"nope"}}); err == nil {
			t.Errorf("%s: unknown solver must fail", kind)
		}
	}
	if _, err := Replay(context.Background(), "nope", []Spec{tinySpec()}, Options{}); err == nil {
		t.Error("unknown trace must fail")
	}
}

// fakeReports builds a report set with a given normalised collective
// solve time (calibration pinned to 1ms for easy arithmetic).
func fakeReports(normalized float64) []*Report {
	return []*Report{{
		Solver:            "collective",
		CalibrationMillis: 1,
		Rows:              []Row{{Trace: traceSolve, Solver: "collective", Scale: "S", SolveMillis: normalized}},
	}}
}

func TestBaselineGate(t *testing.T) {
	base := &Baseline{Scale: "S", NormalizedSolve: map[string]float64{"collective": 10}}
	if err := CheckBaseline(base, fakeReports(10), 20); err != nil {
		t.Errorf("at baseline: %v", err)
	}
	if err := CheckBaseline(base, fakeReports(11.9), 20); err != nil {
		t.Errorf("+19%% must pass: %v", err)
	}
	if err := CheckBaseline(base, fakeReports(12.5), 20); err == nil {
		t.Error("+25% must fail the 20% gate")
	}
	// Solvers absent from the baseline pass (gate only after refresh).
	withNew := append(fakeReports(10), &Report{
		Solver:            "newsolver",
		CalibrationMillis: 1,
		Rows:              []Row{{Trace: traceSolve, Solver: "newsolver", Scale: "S", SolveMillis: 9999}},
	})
	if err := CheckBaseline(base, withNew, 20); err != nil {
		t.Errorf("unlisted solver must pass: %v", err)
	}
	// A green gate must mean "measured and within bounds": a gated
	// solver that was skipped, or has no result at the baseline's
	// scale, fails rather than passing vacuously.
	skipped := fakeReports(0)
	skipped[0].Rows[0].Skipped = "solver exploded"
	if err := CheckBaseline(base, skipped, 20); err == nil {
		t.Error("skipped gated solver must fail the gate")
	}
	// An iteration-capped solve can look fast; it is not comparable.
	capped := fakeReports(1)
	capped[0].Rows[0].Unconverged = true
	if err := CheckBaseline(base, capped, 20); err == nil {
		t.Error("unconverged gated solver must fail the gate")
	}
	off := fakeReports(100)
	off[0].Rows[0].Scale = "M"
	if err := CheckBaseline(base, off, 20); err == nil {
		t.Error("gated solver with no measurement at the baseline scale must fail")
	}
	if err := CheckBaseline(base, nil, 20); err == nil {
		t.Error("empty run must fail the gate")
	}
}

// fakePrepareReports builds a report set with given normalised solve
// and prepare times at two scales (calibration pinned to 1ms).
func fakePrepareReports(solveS, prepareM float64) []*Report {
	return []*Report{{
		Solver:            "collective",
		CalibrationMillis: 1,
		Rows: []Row{
			{Trace: traceSolve, Solver: "collective", Scale: "S", SolveMillis: solveS, PrepareMillis: solveS},
			{Trace: traceSolve, Solver: "collective", Scale: "M", SolveMillis: 99, PrepareMillis: prepareM},
		},
	}}
}

func TestBaselinePrepareGate(t *testing.T) {
	base := &Baseline{
		Scale:             "S",
		NormalizedSolve:   map[string]float64{"collective": 10},
		PrepareScale:      "M",
		NormalizedPrepare: map[string]float64{"collective": 30},
	}
	if err := CheckBaseline(base, fakePrepareReports(10, 30), 20); err != nil {
		t.Errorf("at baseline: %v", err)
	}
	if err := CheckBaseline(base, fakePrepareReports(10, 35), 20); err != nil {
		t.Errorf("prepare +17%% must pass: %v", err)
	}
	if err := CheckBaseline(base, fakePrepareReports(10, 37), 20); err == nil {
		t.Error("prepare +23% must fail the 20% gate")
	} else if !strings.Contains(err.Error(), "prepare") {
		t.Errorf("failure must name the prepare phase: %v", err)
	}
	// A prepare gate with no M measurement fails rather than passing
	// vacuously.
	onlyS := fakePrepareReports(10, 30)
	onlyS[0].Rows = onlyS[0].Rows[:1]
	if err := CheckBaseline(base, onlyS, 20); err == nil {
		t.Error("missing prepare-scale measurement must fail the gate")
	}
	// Without a recorded prepare gate, only solve is checked.
	noPrep := &Baseline{Scale: "S", NormalizedSolve: map[string]float64{"collective": 10}}
	if err := CheckBaseline(noPrep, onlyS, 20); err != nil {
		t.Errorf("solve-only baseline must ignore prepare: %v", err)
	}
}

func TestRecordPrepare(t *testing.T) {
	b := &Baseline{Scale: "S", NormalizedSolve: map[string]float64{"collective": 10}}
	if !b.RecordPrepare(fakePrepareReports(10, 30), "M", "collective") {
		t.Fatal("RecordPrepare with a usable M measurement must report true")
	}
	if b.PrepareScale != "M" || b.NormalizedPrepare["collective"] != 30 {
		t.Fatalf("RecordPrepare = %+v", b)
	}
	// No measurement at the scale leaves the baseline unchanged.
	b2 := &Baseline{Scale: "S", NormalizedSolve: map[string]float64{"collective": 10}}
	if b2.RecordPrepare(fakePrepareReports(10, 30), "L", "collective") {
		t.Fatal("RecordPrepare at an absent scale must report false")
	}
	if b2.PrepareScale != "" || b2.NormalizedPrepare != nil {
		t.Fatalf("RecordPrepare at absent scale = %+v", b2)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	rows, err := Replay(context.Background(), traceSolve, []Spec{tinySpec()}, Options{Solvers: []string{"greedy", "independent"}})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	reports := NewReports(rows)
	b := BaselineFrom(reports, "T")
	if len(b.NormalizedSolve) != 2 {
		t.Fatalf("baseline covers %d solvers, want 2: %+v", len(b.NormalizedSolve), b)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := WriteBaseline(path, b); err != nil {
		t.Fatalf("WriteBaseline: %v", err)
	}
	got, err := LoadBaseline(path)
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, b)
	}
	// The run that produced the baseline passes its own gate.
	if err := CheckBaseline(got, reports, 20); err != nil {
		t.Fatalf("self-gate: %v", err)
	}
}

// TestCompareADMMTiny checks the comparison plumbing end to end on a
// tiny scenario: objectives must match bit-for-bit.
func TestCompareADMMTiny(t *testing.T) {
	cmp, err := CompareADMM(context.Background(), tinySpec(), 4)
	if err != nil {
		t.Fatalf("CompareADMM: %v", err)
	}
	if cmp.ObjectiveDelta != 0 {
		t.Errorf("objective delta %g, want exact 0 (deterministic chunking)", cmp.ObjectiveDelta)
	}
	if !cmp.ObjectivesMatch(1e-6) {
		t.Error("ObjectivesMatch(1e-6) = false")
	}
	if cmp.SerialIterations != cmp.ParallelIterations {
		t.Errorf("iterations diverged: %d vs %d", cmp.SerialIterations, cmp.ParallelIterations)
	}
	if cmp.Vars <= 0 || cmp.Factors <= 0 {
		t.Errorf("missing problem size: %+v", cmp)
	}
}

// TestReportJSONShape pins the report schema: downstream tooling (CI
// artifacts, trend dashboards) reads these field names.
func TestReportJSONShape(t *testing.T) {
	r := &Report{Solver: "x", GoVersion: "go", GOMAXPROCS: 1, CalibrationMillis: 1,
		Rows: []Row{{Trace: traceSolve, Solver: "x", Scale: "S", PrepareMillis: 1, SolveMillis: 1, Iterations: 1, Objective: 1, Allocs: 1}}}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"solver"`, `"goVersion"`, `"gomaxprocs"`, `"calibrationMillis"`,
		`"rows"`, `"trace"`, `"scale"`, `"seed"`, `"parallelism"`, `"prepareMillis"`, `"solveMillis"`, `"iterations"`, `"objective"`, `"allocs"`} {
		if !strings.Contains(string(data), field) {
			t.Errorf("report JSON missing %s: %s", field, data)
		}
	}
}

// LoadReport reads one BENCH_<solver>.json file.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: report %s: %w", path, err)
	}
	return &r, nil
}
