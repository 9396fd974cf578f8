package main

import (
	"encoding/json"
	"os"
	"testing"
)

// shortUnits keeps test runs short: ops per client on the library
// workloads, episodes per client on served-churn.
var shortUnits = map[string]int{
	"cold-select":        4,
	"sharded-throughput": 2,
	"served-churn":       1,
}

func TestShortRunsHaveNoFailures(t *testing.T) {
	for name, units := range shortUnits {
		for _, trace := range []bool{false, true} {
			res, detail, err := run(config{workload: name, seed: 1, units: units, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", name, trace, res.Failed, res.Attempted, detail["failures"])
			}
			want := endToEndMetrics
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.name, got, m.unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
			}
		}
	}
}

func TestCorruptReferenceCountsFailures(t *testing.T) {
	for name, units := range shortUnits {
		res, _, err := run(config{workload: name, seed: 1, units: units, corrupt: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := res.Attempted
		if name == "served-churn" {
			// Only solves carry an objective.
			want = servedClients * units * churnSteps
		}
		if res.Correct || res.Failed != want {
			t.Errorf("%s: correct=%v, %d of %d ops failed, want %d failures", name, res.Correct, res.Failed, res.Attempted, want)
		}
	}
}

// opTrace runs a workload for a fixed number of units and returns its
// ops without timings.
func opTrace(t *testing.T, name string, seed int64) string {
	t.Helper()
	w, err := workloads[name](config{workload: name, seed: seed})
	if err != nil {
		t.Fatalf("%s set-up: %v", name, err)
	}
	defer w.close()
	b, err := json.Marshal(w.run(stopper{units: shortUnits[name]}, false))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestEqualSeedsGiveIdenticalOpTraces(t *testing.T) {
	for name := range shortUnits {
		a, b := opTrace(t, name, 7), opTrace(t, name, 7)
		if a != b {
			t.Errorf("%s: seed 7 gave two different op traces", name)
		}
		if c := opTrace(t, name, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same op trace", name)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists the program
// prints in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s, the program prints %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEndMetrics)
	compare("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", wl.Name)
		}
	}
}
