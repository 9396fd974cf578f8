package bench

import (
	"fmt"
	"strings"
)

// The gated floors, fixed so that every run is held to the same bar.
const (
	// minNormalizedThroughput is the floor on normalizedThroughput at
	// the throughput trace's L scale. A 2-vCPU host measures 1,100 to
	// 2,100 at L; the floor catches a many-fold slowdown without
	// flaking on runner variance, since the calibration already divides
	// machine speed out.
	minNormalizedThroughput = 100
	// maxPeakRSSMB is the peak-RSS budget at the throughput trace's L
	// scale (a 2-vCPU host peaks at 280 to 470 MiB).
	maxPeakRSSMB = 2048
)

// speedupSolvers are the solvers whose stream rows the speedup floor
// holds to.
var speedupSolvers = map[string]bool{"greedy": true, "collective": true}

// Check applies every row gate and returns one error listing each
// violation, or nil. The gates are predicates over rows:
//
//   - differential: a stepped (stream, churn) row's evidence equalled
//     a cold Prepare after every step, and every timed replay
//     reproduced the check replay's warm objectives bit for bit;
//   - warm ≤ cold: a stepped row's final warm objective is no worse
//     than the cold solve of its final state (+1e-9);
//   - speedup: a stream row of greedy or collective at the largest
//     streamed scale is at least minSpeedup times faster per step than
//     cold Prepare + solve (minSpeedup 0 turns the floor off);
//   - serve: a serve row not marked recordedOnly has zero request
//     errors, at least one solve, and a cache hit ratio above zero;
//   - throughput: a throughput row at L reaches minNormalizedThroughput,
//     stays within maxPeakRSSMB, and is not truncated.
//
// Skipped rows have nothing to compare, so the equality gates pass
// them; a floor fails them, because a green floor must mean "measured
// and within bounds".
func Check(rows []Row, minSpeedup float64) error {
	largest := ""
	order := map[string]int{"S": 0, "M": 1, "L": 2}
	for _, r := range rows {
		if r.Trace == traceStream && (largest == "" || order[r.Scale] > order[largest]) {
			largest = r.Scale
		}
	}
	var bad []string
	fail := func(r Row, format string, args ...any) {
		bad = append(bad, fmt.Sprintf("%s %s/%s: ", r.Trace, r.Scale, r.Solver)+fmt.Sprintf(format, args...))
	}
	for _, r := range rows {
		floor := r.Trace == traceServe && !r.RecordedOnly ||
			r.Trace == traceThroughput && r.Scale == "L" ||
			r.Trace == traceStream && minSpeedup > 0 && speedupSolvers[r.Solver] && r.Scale == largest
		if r.Skipped != "" {
			if floor {
				fail(r, "gated row skipped: %s", r.Skipped)
			}
			continue
		}
		switch r.Trace {
		case traceStream, traceChurn:
			if !r.EvidenceIdentical {
				fail(r, "incremental evidence diverged from cold Prepare")
			}
			if !r.WarmReproducible {
				fail(r, "a timed replay did not reproduce the check replay's warm objectives")
			}
			if r.WarmObjective > r.Objective+1e-9 {
				fail(r, "warm objective %g worse than cold objective %g", r.WarmObjective, r.Objective)
			}
			if floor && r.Speedup < minSpeedup {
				fail(r, "warm re-solve only %.2fx faster than cold Prepare+Solve (floor %gx)", r.Speedup, minSpeedup)
			}
		case traceServe:
			if !floor {
				continue
			}
			if r.Errors > 0 {
				fail(r, "%d request errors under load", r.Errors)
			}
			if r.Solves == 0 {
				fail(r, "no successful solves recorded")
			}
			if r.CacheHitRatio <= 0 {
				fail(r, "prepared-problem cache never hit")
			}
		case traceThroughput:
			if !floor {
				continue
			}
			if r.NormalizedThroughput < minNormalizedThroughput {
				fail(r, "normalized throughput %.1f below floor %d (%.0f tuples/sec)", r.NormalizedThroughput, minNormalizedThroughput, r.TuplesPerSec)
			}
			if r.PeakRSSMB > maxPeakRSSMB {
				fail(r, "peak RSS %.0f MB over budget %d MB", r.PeakRSSMB, maxPeakRSSMB)
			}
			if r.Truncated {
				fail(r, "solve truncated — throughput not comparable")
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("bench: row gates failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}
