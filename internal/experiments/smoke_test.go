package experiments

import (
	"context"
	"strconv"
	"testing"
)

// Quick-scale smoke tests: every experiment must run, produce rows,
// and satisfy its headline shape claim.

func TestE2SweepRuns(t *testing.T) {
	tab, err := E2CorrespSweep(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestE5ScalingShape(t *testing.T) {
	tab, err := E5Scaling(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// |C| grows with n.
	prev := -1
	for _, r := range tab.Rows {
		c, err := strconv.Atoi(r[1])
		if err != nil {
			t.Fatal(err)
		}
		if c < prev {
			t.Errorf("|C| not non-decreasing: %v", tab.Rows)
		}
		prev = c
	}
}

func TestE6CollectiveOptimal(t *testing.T) {
	tab, err := E6ApproxQuality(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	// Row order: independent, greedy, collective; gap column is 3.
	var collGap, indGap float64
	for _, r := range tab.Rows {
		gap, err := strconv.ParseFloat(r[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		switch r[0] {
		case "collective":
			collGap = gap
		case "independent":
			indGap = gap
		}
	}
	if collGap > 5 {
		t.Errorf("collective gap %v%%, want near 0", collGap)
	}
	if indGap < collGap {
		t.Errorf("independent gap %v%% below collective %v%%", indGap, collGap)
	}
}

func TestE8AppendixFlip(t *testing.T) {
	tab, err := E8CorroborationAblation(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: corroborated selects {θ3}; row 1: naive selects {θ1}.
	if tab.Rows[0][2] != "{θ3}" {
		t.Errorf("corroborated selection = %q, want {θ3}", tab.Rows[0][2])
	}
	if tab.Rows[1][2] != "{θ1}" {
		t.Errorf("naive selection = %q, want {θ1}", tab.Rows[1][2])
	}
}

func TestE9LearningRuns(t *testing.T) {
	tab, err := E9WeightLearning(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want default+learned", len(tab.Rows))
	}
	def, err := strconv.ParseFloat(tab.Rows[0][4], 64)
	if err != nil {
		t.Fatal(err)
	}
	learned, err := strconv.ParseFloat(tab.Rows[1][4], 64)
	if err != nil {
		t.Fatal(err)
	}
	if learned < def-0.1 {
		t.Errorf("learned weights test F1 %v well below default %v", learned, def)
	}
}

func TestAllRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run")
	}
	results, err := Run(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(suite) {
		t.Fatalf("ran %d experiments, want the whole suite (%d)", len(results), len(suite))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Errorf("%v", res.Err)
			continue
		}
		if res.Table.ID != suite[i].id {
			t.Errorf("suite entry %s produced table %s", suite[i].id, res.Table.ID)
		}
		if len(res.Table.Rows) == 0 {
			t.Errorf("%s: no rows", res.Table.ID)
		}
	}
}

// Selecting IDs runs exactly those experiments; an unknown ID is an
// error before anything runs.
func TestRunSelectsIDs(t *testing.T) {
	results, err := Run(context.Background(), quick(), "EX0")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err != nil || results[0].Table.ID != "EX0" {
		t.Fatalf("Run(EX0) = %+v, want exactly the EX0 table", results)
	}
	if results, err := Run(context.Background(), quick(), "EX0", "E42"); err == nil || results != nil {
		t.Fatalf("Run(EX0, E42) = %v, %v; want an error and no results", results, err)
	}
}
