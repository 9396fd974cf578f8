package metrics

// Runtime telemetry for serving workloads: a small, dependency-free
// metric registry (counters, gauges, fixed-bucket histograms, each
// with an optional single label) rendered in the Prometheus text
// exposition format. internal/serve registers its prepare/solve
// latency histograms and cache counters here and exports them on
// GET /metrics; anything that scrapes Prometheus text can consume it.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Registry holds a set of named metrics. The zero value is not usable;
// create one with NewRegistry. All methods are safe for concurrent
// use.
type Registry struct {
	mu       sync.Mutex // guards families, byName (and every family's series map)
	families []*family
	byName   map[string]*family
}

// family groups the series of one metric name (HELP/TYPE are emitted
// once per name, then one line per label value). name/help/typ are
// immutable after creation.
type family struct {
	name, help, typ string
	series          map[string]series // guarded by Registry.mu
}

type series interface {
	write(w io.Writer, name, labels string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

//lint:guarded-by-caller get and WriteText hold r.mu around every family access
func (r *Registry) family(name, help, typ string) *family {
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]series)}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// get returns the series for (name, label), creating it with mk on
// first use. label is the pre-rendered label block ("" or
// `{key="value"}`).
func (r *Registry) get(name, help, typ, label string, mk func() series) series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, typ)
	s, ok := f.series[label]
	if !ok {
		s = mk()
		f.series[label] = s
	}
	return s
}

// Counter returns the counter named name (created on first use).
func (r *Registry) Counter(name, help string) *Counter {
	return r.get(name, help, "counter", "", func() series { return &Counter{} }).(*Counter)
}

// CounterWith is Counter for a labelled series, e.g.
// CounterWith("solves_total", "...", "solver", "greedy"). Series of
// one name share HELP/TYPE and are rendered as a family.
func (r *Registry) CounterWith(name, help, label, value string) *Counter {
	return r.get(name, help, "counter", renderLabel(label, value), func() series { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge named name (created on first use).
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.get(name, help, "gauge", "", func() series { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram named name (created on first use
// with the given bucket upper bounds, which must be sorted ascending;
// nil means DefaultLatencyBuckets). Later calls ignore the buckets
// argument.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.histogramSeries(name, help, "", buckets)
}

// HistogramWith is Histogram for a labelled series.
func (r *Registry) HistogramWith(name, help, label, value string, buckets []float64) *Histogram {
	return r.histogramSeries(name, help, renderLabel(label, value), buckets)
}

func (r *Registry) histogramSeries(name, help, label string, buckets []float64) *Histogram {
	return r.get(name, help, "histogram", label, func() series {
		if buckets == nil {
			buckets = DefaultLatencyBuckets()
		}
		return newHistogram(buckets)
	}).(*Histogram)
}

// WriteText renders every registered metric in the Prometheus text
// exposition format. Output is byte-identical for equal metric state:
// families render sorted by name and series sorted by label block, so
// the order requests happened to create them in (a per-run artifact of
// scheduling) never shows through. Serving tests diff /metrics bodies
// directly and depend on this.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		labels := make([]string, 0, len(f.series))
		for label := range f.series {
			labels = append(labels, label)
		}
		sort.Strings(labels)
		for _, label := range labels {
			f.series[label].write(w, f.name, label)
		}
	}
	return nil
}

// renderLabel renders one label pair as a series suffix, escaping the
// value per the exposition format.
func renderLabel(key, value string) string {
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(value)
	return fmt.Sprintf("{%s=%q}", key, esc)
}

// Counter is a monotonically increasing value.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (negative deltas are a programming error and panic).
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		panic("metrics: counter decremented")
	}
	c.mu.Lock()
	c.v += delta
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

func (c *Counter) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatValue(c.Value()))
}

// Gauge is a value that can go up and down.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta float64) {
	g.mu.Lock()
	g.v += delta
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

func (g *Gauge) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatValue(g.Value()))
}

// Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []uint64  // per-bound (non-cumulative)
	infCnt uint64
	sum    float64
	total  uint64
}

// DefaultLatencyBuckets returns bounds suited to request latencies in
// seconds, 0.5ms to 10s.
func DefaultLatencyBuckets() []float64 {
	return []float64{
		0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram buckets not ascending")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.total++
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i]++
	} else {
		h.infCnt++
	}
}

func (h *Histogram) write(w io.Writer, name, labels string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := uint64(0)
	for i, c := range h.counts {
		cum += c
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, h.bounds[i]), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, math.Inf(1)), cum+h.infCnt)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatValue(h.sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.total)
}

// bucketLabels merges a series' label block with the le bucket label.
func bucketLabels(labels string, bound float64) string {
	le := "+Inf"
	if !math.IsInf(bound, 1) {
		le = formatValue(bound)
	}
	if labels == "" {
		return fmt.Sprintf(`{le="%s"}`, le)
	}
	return fmt.Sprintf(`%s,le="%s"}`, strings.TrimSuffix(labels, "}"), le)
}

func formatValue(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}
