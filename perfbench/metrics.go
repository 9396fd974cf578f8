package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// op is one measured operation. The exported fields are its output,
// compared across runs by the trace-identity test; the timings are
// not part of that trace.
type op struct {
	// Kind is "select" on the library workloads, the route name
	// (create, append, remove, source_delta, solve, delete) on
	// served-churn.
	Kind   string `json:"kind"`
	Client int    `json:"client"`
	// Input is the index of the scenario (churn plan on served-churn)
	// the op ran on; Step the plan step, -1 for session create and
	// delete.
	Input int `json:"input"`
	Step  int `json:"step"`
	// Tuples is the live target tuple count of the problem the op ran
	// on.
	Tuples    int     `json:"tuples"`
	Objective float64 `json:"objective,omitempty"`
	Selected  []int   `json:"selected,omitempty"`
	Iters     int     `json:"iters,omitempty"`
	Truncated bool    `json:"truncated,omitempty"`
	Warm      bool    `json:"warm,omitempty"`
	// Changed is the number of pre-existing target tuples whose
	// coverage a write changed.
	Changed int    `json:"changed,omitempty"`
	Err     string `json:"err,omitempty"`

	// ms is the op's wall time; mutateMs and solveMs split it into the
	// evidence-building and the solving part (0 when absent).
	ms, mutateMs, solveMs float64
}

type metricDef struct {
	name, unit string
}

// endToEndMetrics are printed by every untraced run; BENCHMARK.json
// lists the same names.
var endToEndMetrics = []metricDef{
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"tuples_per_s", "1/s"},
	{"solve_p50_ms", "ms"},
	{"mutate_p50_ms", "ms"},
	{"setup_s", "s"},
}

// perLayer are printed by every traced run; a layer a workload does
// not reach reads 0. BENCHMARK.json lists the same names.
var perLayer = []metricDef{
	{"core.prepare_ms", "ms"},
	{"cover.index_ms", "ms"},
	{"cover.analyze_ms", "ms"},
	{"cover.incidence_ms", "ms"},
	{"cover.pairs", "count"},
	{"core.solve_ms", "ms"},
	{"psl.admm_iters", "count"},
	{"core.solve_us_per_iter", "us"},
	{"shard.split_ms", "ms"},
	{"shard.shards", "count"},
	{"shard.largest_candidates", "count"},
	{"shard.largest_tuples", "count"},
	{"shard.inner_solve_sum_ms", "ms"},
	{"shard.inner_solve_max_ms", "ms"},
	{"shard.merge_ms", "ms"},
	{"core.append_ms", "ms"},
	{"core.remove_ms", "ms"},
	{"core.source_delta_ms", "ms"},
	{"core.warm_solve_ms", "ms"},
	{"core.fork_ms", "ms"},
	{"core.fork_detached_ms", "ms"},
	{"serve.create_ms", "ms"},
	{"serve.append_ms", "ms"},
	{"serve.remove_ms", "ms"},
	{"serve.source_delta_ms", "ms"},
	{"serve.solve_ms", "ms"},
	{"serve.delete_ms", "ms"},
	{"serve.create_self_ms", "ms"},
	{"serve.append_self_ms", "ms"},
	{"serve.remove_self_ms", "ms"},
	{"serve.source_delta_self_ms", "ms"},
	{"serve.solve_self_ms", "ms"},
	{"serve.delete_self_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.forks_per_episode", "count"},
	{"cover.changed_tuples_per_write", "count"},
	{"psl.warm_admm_iters", "count"},
	{"core.prepare.allocs", "count"},
	{"core.prepare.alloc_mb", "MB"},
	{"core.solve.allocs", "count"},
	{"core.solve.alloc_mb", "MB"},
	{"shard.split.allocs", "count"},
	{"shard.split.alloc_mb", "MB"},
	{"core.append.allocs", "count"},
	{"core.append.alloc_mb", "MB"},
	{"core.warm_solve.allocs", "count"},
	{"core.warm_solve.alloc_mb", "MB"},
	{"serve.op.allocs", "count"},
	{"serve.op.alloc_mb", "MB"},
	{"gc.pause_ms", "ms"},
	{"trace.cover_sum_ratio", "ratio"},
	{"trace.overhead_op_p50_ms", "ms"},
}

// coverTolerance is how far the summed cover replay spans may lie from
// the Prepare span they replay, as a share of the Prepare span.
const coverTolerance = 0.15

// endToEnd computes the end-to-end metrics of an untraced timed phase
// (all but setup_s) and the sample count behind each.
func endToEnd(ops []op, seconds float64) (map[string]float64, map[string]int) {
	var all, solve, mutate, rate []float64
	for _, o := range ops {
		if o.Err != "" {
			continue
		}
		all = append(all, o.ms)
		if o.solveMs > 0 {
			solve = append(solve, o.solveMs)
		}
		if o.mutateMs > 0 {
			mutate = append(mutate, o.mutateMs)
		}
		rate = append(rate, float64(o.Tuples)/(o.ms/1e3))
	}
	values := map[string]float64{
		"op_p50_ms":     quantile(all, 0.5),
		"op_p90_ms":     quantile(all, 0.9),
		"tuples_per_s":  quantile(rate, 0.5),
		"solve_p50_ms":  quantile(solve, 0.5),
		"mutate_p50_ms": quantile(mutate, 0.5),
	}
	if seconds > 0 {
		values["ops_per_s"] = float64(len(all)) / seconds
	}
	samples := map[string]int{
		"op_p50_ms":     len(all),
		"op_p90_ms":     len(all),
		"ops_per_s":     len(all),
		"tuples_per_s":  len(rate),
		"solve_p50_ms":  len(solve),
		"mutate_p50_ms": len(mutate),
		"setup_s":       setupReps,
	}
	return values, samples
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func opMillis(ops []op) []float64 {
	ms := make([]float64, 0, len(ops))
	for _, o := range ops {
		if o.Err == "" {
			ms = append(ms, o.ms)
		}
	}
	return ms
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// samples collects per-layer observations of a traced phase.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// span is one timed call into a layer, with the allocations the
// process made during it.
type span struct {
	ms     float64
	allocs float64
	mb     float64
}

// measure times f. With mem it also reads the allocation counters
// around it; that stops the world twice, so only traced runs ask.
func measure(mem bool, f func()) span {
	if !mem {
		start := time.Now()
		f()
		return span{ms: millis(time.Since(start))}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return span{
		ms:     millis(elapsed),
		allocs: float64(after.Mallocs - before.Mallocs),
		mb:     float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
	}
}

// record files a span under a layer name: <layer>_ms, and with
// allocation data <layer>.allocs and <layer>.alloc_mb.
func (s samples) record(layer string, sp span, allocs bool) {
	s.add(layer+"_ms", sp.ms)
	if allocs {
		s.add(layer+".allocs", sp.allocs)
		s.add(layer+".alloc_mb", sp.mb)
	}
}

// medians reduces every sample list to its median.
func (s samples) medians() map[string]float64 {
	out := make(map[string]float64, len(s))
	for k, v := range s {
		out[k] = quantile(v, 0.5)
	}
	return out
}

// deriveSeed maps the run seed to the seed of one generated input, so
// inputs differ across streams and indices but repeat for equal run
// seeds (splitmix64 finaliser; never 0).
func deriveSeed(seed int64, stream string, k int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k)
	for i := 0; i < len(stream); i++ {
		x = (x ^ uint64(stream[i])) * 0x100000001B3
	}
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	v := int64(x >> 1)
	if v == 0 {
		v = 1
	}
	return v
}
