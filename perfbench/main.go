// Command perfbench is the repository's end-to-end benchmark. One
// process drives one of three closed-loop workloads over the internal
// packages — cold-select, sharded-throughput or served-churn — checks
// every operation's output against a reference computed after the
// timed phase, and prints one JSON result line: end-to-end metrics
// with -trace 0, per-layer metrics with -trace 1. README.md documents
// the workloads, the metrics and the layer each metric belongs to.
//
// Usage:
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// run.sh builds the command from source and runs it with these flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// processStart anchors the first set-up pass: set-up time counts from
// process start, so runtime start-up is included and toolchain
// compile time is not.
var processStart = time.Now()

// setupReps is how many times a run performs the full set-up. Every
// pass runs the same fixed step list; setup_s is their median.
const setupReps = 3

// setupWorkers bounds the goroutines that generate inputs and compute
// references, so load stays within two CPUs there too.
const setupWorkers = 2

// watchdog bounds a whole run: a run that hangs exits non-zero
// without printing a result.
const watchdog = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload: cold-select, sharded-throughput or served-churn")
		seed    = flag.Int64("seed", 1, "workload seed; equal seeds generate equal inputs")
		seconds = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive, got %g", *seconds)
	}
	time.AfterFunc(watchdog, func() { fatalf("run exceeded %v", watchdog) })

	cfg := config{
		workload: *name,
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
	}
	res, detail, err := run(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(detail); err != nil {
		fatalf("encode detail: %v", err)
	}
	if err := enc.Encode(res); err != nil {
		fatalf("encode result: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	// units, when positive, replaces the deadline: every client stops
	// after this many ops (episodes on served-churn). Tests use it to
	// get runs whose op traces are comparable.
	units int
	// corrupt perturbs every reference objective by one ulp, so each
	// checked op must count as failed. Tests use it.
	corrupt bool
}

// workload is one benchmark workload after set-up.
type workload interface {
	// run drives the closed loop until st says stop and returns the
	// ops in client order. traced adds the per-layer spans.
	run(st stopper, traced bool) []op
	// references computes the reference outputs ops are checked
	// against; it runs after the timed phase.
	references() error
	// check reports why an op's output is wrong, or nil.
	check(o *op) error
	// layers returns the per-layer metrics of the traced ops and the
	// names of failed consistency checks.
	layers(traced []op) (map[string]float64, []string)
	// describe returns the workload's inputs and settings for the
	// detail line.
	describe() map[string]any
	close()
}

var workloads = map[string]func(config) (workload, error){
	"cold-select":        newColdSelect,
	"sharded-throughput": newShardedThroughput,
	"served-churn":       newServedChurn,
}

// stopper ends a closed loop at a deadline or after a fixed number of
// units per client.
type stopper struct {
	deadline time.Time
	units    int
}

// more reports whether a client that has finished done units starts
// another.
func (s stopper) more(done int) bool {
	if s.units > 0 {
		return done < s.units
	}
	return time.Now().Before(s.deadline)
}

// expired reports whether a unit in progress should stop early.
func (s stopper) expired() bool {
	return s.units == 0 && !time.Now().Before(s.deadline)
}

func (c config) stopper(d time.Duration) stopper {
	if c.units > 0 {
		return stopper{units: c.units}
	}
	return stopper{deadline: time.Now().Add(d)}
}

// metric is one printed metric.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run sets the workload up setupReps times, drives the timed phase,
// checks every op and computes the metrics.
func run(cfg config) (*result, map[string]any, error) {
	factory, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (have cold-select, sharded-throughput, served-churn)", cfg.workload)
	}
	var w workload
	setups := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		start := processStart
		if rep > 0 {
			w.close()
			runtime.GC()
			start = time.Now()
		}
		var err error
		if w, err = factory(cfg); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()
	runtime.GC()

	var plain, traced []op
	var phaseSeconds float64
	if cfg.trace {
		// The first half runs untraced so the overhead of tracing can
		// be reported from one process.
		plain = w.run(cfg.stopper(cfg.duration/2), false)
		runtime.GC()
		traced = w.run(cfg.stopper(cfg.duration/2), true)
	} else {
		start := time.Now()
		plain = w.run(cfg.stopper(cfg.duration), false)
		phaseSeconds = time.Since(start).Seconds()
	}
	if err := w.references(); err != nil {
		return nil, nil, fmt.Errorf("%s references: %w", cfg.workload, err)
	}

	all := append(append([]op(nil), plain...), traced...)
	failed := 0
	var failures []string
	for i := range all {
		o := &all[i]
		if o.Err == "" {
			if err := w.check(o); err != nil {
				o.Err = err.Error()
			}
		}
		if o.Err != "" {
			failed++
			if len(failures) < 5 {
				failures = append(failures, fmt.Sprintf("client %d %s input %d step %d: %s", o.Client, o.Kind, o.Input, o.Step, o.Err))
			}
		}
	}

	res := &result{Attempted: len(all), Failed: failed, Metrics: map[string]metric{}}
	detail := map[string]any{
		"workload": cfg.workload,
		"trace":    cfg.trace,
		"env":      environment(cfg),
		"inputs":   w.describe(),
		"setup_s":  setups,
		"failures": failures,
	}
	checksOK := true
	if cfg.trace {
		values, bad := w.layers(traced)
		values["trace.overhead_op_p50_ms"] = quantile(opMillis(traced), 0.5) - quantile(opMillis(plain), 0.5)
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: finite(values[m.name]), Unit: m.unit}
		}
		detail["checks_failed"] = bad
		detail["samples"] = map[string]int{"untraced_ops": len(plain), "traced_ops": len(traced)}
		checksOK = len(bad) == 0
	} else {
		values, samples := endToEnd(plain, phaseSeconds)
		values["setup_s"] = quantile(setups, 0.5)
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metric{Value: finite(values[m.name]), Unit: m.unit}
		}
		detail["samples"] = samples
	}
	res.Correct = failed == 0 && len(all) > 0 && checksOK
	return res, detail, nil
}

// environment records what the run actually had.
func environment(cfg config) map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"seed":       cfg.seed,
		"seconds":    cfg.duration.Seconds(),
		"setup_reps": setupReps,
	}
}

// parallel calls f(0) … f(n-1) on setupWorkers goroutines and returns
// the results in index order, or the error of the lowest failed index.
func parallel[T any](n int, f func(k int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for range setupWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				out[k], errs[k] = f(k)
			}
		}()
	}
	for k := 0; k < n; k++ {
		next <- k
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
