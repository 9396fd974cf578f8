package quality

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"schemamap/internal/core"
)

// tinyCells is a three-cell slice of the standard matrix (one
// single-family cell, one clean mixed cell, one noisy mixed cell) so
// harness tests run in milliseconds.
func tinyCells(t *testing.T) []Cell {
	t.Helper()
	cells, err := CellsNamed("CP-S-none", "mixed-S-none", "mixed-S-mid")
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// TestMatrixShape pins the acceptance-relevant properties of the
// standard matrix: at least 10 cells spanning at least 3 noise
// levels, every primitive family alone as well as mixed, and both
// scales; names and seeds unique (the baseline is keyed by name, and
// two cells sharing a seed+config would be the same scenario twice).
func TestMatrixShape(t *testing.T) {
	cells := Matrix()
	if len(cells) < 10 {
		t.Fatalf("matrix has %d cells, want ≥ 10", len(cells))
	}
	names := map[string]bool{}
	seeds := map[int64]bool{}
	levels := map[string]bool{}
	families := map[string]bool{}
	scales := map[string]bool{}
	for _, c := range cells {
		if names[c.Name] {
			t.Errorf("duplicate cell name %s", c.Name)
		}
		names[c.Name] = true
		if seeds[c.Seed] {
			t.Errorf("duplicate cell seed %d (%s)", c.Seed, c.Name)
		}
		seeds[c.Seed] = true
		levels[c.Noise.Name] = true
		families[c.Family] = true
		scales[c.Scale] = true
		if _, err := c.Config(); err != nil {
			t.Errorf("cell %s: %v", c.Name, err)
		}
	}
	if len(levels) < 3 {
		t.Errorf("matrix spans %d noise levels, want ≥ 3", len(levels))
	}
	for _, fam := range []string{"CP", "ADD", "DL", "ADL", "ME", "VP", "VNM", Mixed} {
		if !families[fam] {
			t.Errorf("matrix missing family %s", fam)
		}
	}
	if !scales["S"] || !scales["M"] {
		t.Errorf("matrix scales = %v, want S and M", scales)
	}
}

func TestCellsNamed(t *testing.T) {
	all, err := CellsNamed()
	if err != nil || len(all) != len(Matrix()) {
		t.Fatalf("CellsNamed() = %d cells, %v; want full matrix", len(all), err)
	}
	if _, err := CellsNamed("no-such-cell"); err == nil {
		t.Fatal("unknown cell name must fail")
	}
}

// TestRunAllSolvers runs the harness over every registered solver on
// the tiny cell set and checks each report is complete.
func TestRunAllSolvers(t *testing.T) {
	cells := tinyCells(t)
	reports, err := Run(context.Background(), Options{Cells: cells, Parallelism: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(reports) != len(core.Names()) {
		t.Fatalf("got %d reports, want one per registered solver (%d)", len(reports), len(core.Names()))
	}
	for _, r := range reports {
		if len(r.Cells) != len(cells) {
			t.Fatalf("%s: got %d cell results, want %d", r.Solver, len(r.Cells), len(cells))
		}
		for _, res := range r.Cells {
			if res.Skipped != "" {
				t.Errorf("%s@%s skipped on tiny cell: %s", r.Solver, res.Cell, res.Skipped)
				continue
			}
			if res.Candidates <= 0 || res.GoldTGDs <= 0 || res.JTuples <= 0 {
				t.Errorf("%s@%s: incomplete result %+v", r.Solver, res.Cell, res)
			}
			for what, f1 := range map[string]float64{"mapping": res.MappingF1, "tuple": res.TupleF1} {
				if f1 < 0 || f1 > 1 {
					t.Errorf("%s@%s: %s F1 %v outside [0,1]", r.Solver, res.Cell, what, f1)
				}
			}
			if res.Selected == 0 && res.MappingF1 != 0 {
				t.Errorf("%s@%s: empty selection with nonzero mapping F1", r.Solver, res.Cell)
			}
		}
	}
}

// TestRunDeterminism asserts the acceptance criterion directly: two
// harness runs with the same options produce bit-identical quality
// metrics (no wall-clock budgets, pinned seeds, deterministic
// solvers).
func TestRunDeterminism(t *testing.T) {
	opt := Options{Cells: tinyCells(t), Parallelism: 2}
	first, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatalf("first Run: %v", err)
	}
	// Different parallelism on the rerun: results must not depend on it.
	opt.Parallelism = 1
	second, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("quality metrics differ across runs:\nfirst  %+v\nsecond %+v", first, second)
	}
}

// TestExhaustiveCapSkips checks that a cell above ExhaustiveCellCap
// candidates is recorded as a deterministic skip for exhaustive search,
// not run or errored.
func TestExhaustiveCapSkips(t *testing.T) {
	cells, err := CellsNamed("mixed-S-high")
	if err != nil {
		t.Fatal(err)
	}
	reports, err := Run(context.Background(), Options{Cells: cells, Solvers: []string{"exhaustive"}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	res := reports[0].Cells[0]
	if res.Candidates <= ExhaustiveCellCap {
		t.Fatalf("%s has %d candidates, want a cell above the cap %d", res.Cell, res.Candidates, ExhaustiveCellCap)
	}
	if res.Skipped == "" {
		t.Errorf("%s: above the cap must skip, got %+v", res.Cell, res)
	}
	if res.MappingF1 != 0 || res.TupleF1 != 0 || res.Objective != 0 {
		t.Errorf("%s: skipped cell carries measurements", res.Cell)
	}
}

func TestRunUnknownSolver(t *testing.T) {
	if _, err := Run(context.Background(), Options{Solvers: []string{"nope"}}); err == nil {
		t.Fatal("unknown solver must fail")
	}
}

func TestReportRoundTrip(t *testing.T) {
	reports, err := Run(context.Background(), Options{
		Cells:   tinyCells(t),
		Solvers: []string{"greedy"},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	dir := t.TempDir()
	paths, err := WriteReports(dir, reports)
	if err != nil {
		t.Fatalf("WriteReports: %v", err)
	}
	if len(paths) != 1 || filepath.Base(paths[0]) != "QUALITY_greedy.json" {
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

// LoadReport reads one QUALITY_<solver>.json file.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("quality: report %s: %w", path, err)
	}
	return &r, nil
}
