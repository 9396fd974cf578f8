package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Baseline is the checked-in perf reference the CI bench job gates
// against. Raw milliseconds are machine-dependent, so the baseline
// records *normalised* solve times: solveMillis divided by the
// process's calibration time (bench.Calibrate), i.e. "this solve costs
// k calibration units". A PR fails the gate when a gated solver's
// normalised time exceeds baseline·(1 + gate%).
type Baseline struct {
	Scale string `json:"scale"`
	// NormalizedSolve maps solver name -> solveMillis/calibrationMillis
	// recorded when the baseline was refreshed.
	NormalizedSolve map[string]float64 `json:"normalizedSolve"`
	// PrepareScale is the scale the prepare-phase gate runs at
	// (typically M — the S prepare is too fast to gate on wall time);
	// empty means no prepare gate.
	PrepareScale string `json:"prepareScale,omitempty"`
	// NormalizedPrepare maps solver name ->
	// prepareMillis/calibrationMillis at PrepareScale. Prepare is the
	// shared chase + cover evidence phase, so one solver entry
	// (collective) suffices to gate it.
	NormalizedPrepare map[string]float64 `json:"normalizedPrepare,omitempty"`
	// RecordedOn documents the recording machine (informational).
	RecordedOn string `json:"recordedOn,omitempty"`
}

// BaselineFrom extracts a baseline from a harness run at the given
// scale. Only solvers with a measurement at that scale are recorded;
// when solvers is non-empty it further restricts the recorded set
// (the CI gate records only the collective/ADMM solver — gating
// microsecond-fast solvers on wall time would only add noise).
func BaselineFrom(reports []*Report, scale string, solvers ...string) *Baseline {
	keep := make(map[string]bool, len(solvers))
	for _, s := range solvers {
		keep[s] = true
	}
	b := &Baseline{
		Scale: scale,
		NormalizedSolve: recordNormalized(reports, scale,
			func(res Result) float64 { return res.SolveMillis }, solvers),
	}
	return b
}

// RecordPrepare adds a prepare-phase gate at the given scale,
// recording the normalised prepareMillis of the listed solvers (all
// when empty) from the run. Solvers with no usable measurement at the
// scale are skipped; if none have one, the baseline is unchanged and
// RecordPrepare reports false.
func (b *Baseline) RecordPrepare(reports []*Report, scale string, solvers ...string) bool {
	recorded := recordNormalized(reports, scale,
		func(res Result) float64 { return res.PrepareMillis }, solvers)
	if len(recorded) == 0 {
		return false
	}
	b.PrepareScale = scale
	b.NormalizedPrepare = recorded
	return true
}

// recordNormalized extracts one normalised metric per solver (all
// when solvers is empty) from the run's usable measurements at the
// scale.
func recordNormalized(reports []*Report, scale string, metric func(Result) float64, solvers []string) map[string]float64 {
	keep := make(map[string]bool, len(solvers))
	for _, s := range solvers {
		keep[s] = true
	}
	recorded := make(map[string]float64)
	for _, r := range reports {
		if r.CalibrationMillis <= 0 {
			continue
		}
		if len(keep) > 0 && !keep[r.Solver] {
			continue
		}
		for _, res := range r.Results {
			if res.Scale == scale && res.Skipped == "" {
				recorded[r.Solver] = metric(res) / r.CalibrationMillis
			}
		}
	}
	return recorded
}

// LoadBaseline reads a baseline file.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: baseline %s: %w", path, err)
	}
	return &b, nil
}

// WriteBaseline writes a baseline file (indented JSON).
func WriteBaseline(path string, b *Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CheckBaseline compares a run against the baseline: each solver
// recorded in the baseline must not regress its normalised solve time
// by more than gatePercent at the baseline's scale, and — when the
// baseline records a prepare gate — its normalised prepare time at
// the prepare scale. A gated solver with no usable measurement at the
// gated scale — skipped, erroring, or simply absent from the run —
// fails the gate too: a green gate must mean "measured and within
// bounds", never "could not measure". Solvers present in the run but
// absent from the baseline pass (new solvers gate only after the
// baseline is refreshed). Returns one error summarising all failures,
// or nil.
func CheckBaseline(b *Baseline, reports []*Report, gatePercent float64) error {
	if gatePercent <= 0 {
		gatePercent = 20
	}
	failures := gatePhase(reports, b.Scale, b.NormalizedSolve, gatePercent, "solve",
		func(res Result) float64 { return res.SolveMillis })
	if b.PrepareScale != "" {
		failures = append(failures, gatePhase(reports, b.PrepareScale, b.NormalizedPrepare, gatePercent, "prepare",
			func(res Result) float64 { return res.PrepareMillis })...)
	}
	if len(failures) > 0 {
		msg := "bench: perf gate failed:"
		for _, f := range failures {
			msg += "\n  " + f
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}

// gatePhase applies one normalised-time gate (solve or prepare) at
// one scale and returns the failure descriptions.
func gatePhase(reports []*Report, scale string, gated map[string]float64, gatePercent float64, phase string, metric func(Result) float64) []string {
	var failures []string
	names := make([]string, 0, len(gated))
	for name := range gated {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := gated[name]
		measured := false
		for _, r := range reports {
			if r.Solver != name || r.CalibrationMillis <= 0 {
				continue
			}
			for _, res := range r.Results {
				if res.Scale != scale {
					continue
				}
				if res.Skipped != "" {
					failures = append(failures, fmt.Sprintf(
						"%s@%s %s: gated solver skipped: %s", name, scale, phase, res.Skipped))
					measured = true
					continue
				}
				measured = true
				if res.Unconverged {
					// An iteration-capped solve time is not comparable.
					failures = append(failures, fmt.Sprintf(
						"%s@%s %s: gated solver did not converge", name, scale, phase))
					continue
				}
				got := metric(res) / r.CalibrationMillis
				limit := want * (1 + gatePercent/100)
				if got > limit {
					failures = append(failures, fmt.Sprintf(
						"%s@%s %s: %.2f calibration units > baseline %.2f +%g%% (limit %.2f)",
						name, scale, phase, got, want, gatePercent, limit))
				}
			}
		}
		if !measured {
			failures = append(failures, fmt.Sprintf(
				"%s@%s %s: gated solver has no measurement at the gated scale", name, scale, phase))
		}
	}
	return failures
}
