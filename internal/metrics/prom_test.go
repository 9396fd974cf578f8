package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestPromTextFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Total requests.")
	c.Inc()
	c.Add(2)
	g := r.Gauge("inflight", "In-flight requests.")
	g.Set(3)
	g.Add(-1)
	r.CounterWith("solves_total", "Solves per solver.", "solver", "greedy").Add(5)
	r.CounterWith("solves_total", "Solves per solver.", "solver", "collective").Inc()
	h := r.Histogram("latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(7)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP requests_total Total requests.",
		"# TYPE requests_total counter",
		"requests_total 3",
		"inflight 2",
		"# TYPE solves_total counter",
		`solves_total{solver="greedy"} 5`,
		`solves_total{solver="collective"} 1`,
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 2`,
		`latency_seconds_bucket{le="+Inf"} 3`,
		"latency_seconds_sum 7.55",
		"latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// One HELP line per family, not per series.
	if got := strings.Count(out, "# HELP solves_total"); got != 1 {
		t.Errorf("HELP solves_total emitted %d times", got)
	}
}

// WriteText output must not depend on the order requests happened to
// create metrics in: two registries holding the same state render
// byte-identically whatever their creation order was.
func TestWriteTextOrderIndependent(t *testing.T) {
	build := func(order []func(*Registry)) string {
		r := NewRegistry()
		for _, f := range order {
			f(r)
		}
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	greedy := func(r *Registry) { r.CounterWith("solves_total", "Solves.", "solver", "greedy").Add(2) }
	collective := func(r *Registry) { r.CounterWith("solves_total", "Solves.", "solver", "collective").Inc() }
	sessions := func(r *Registry) { r.Counter("sessions_total", "Sessions.").Add(3) }
	inflight := func(r *Registry) { r.Gauge("inflight", "In flight.").Set(1) }
	hist := func(r *Registry) { r.Histogram("latency_seconds", "Latency.", []float64{0.1, 1}).Observe(0.5) }

	a := build([]func(*Registry){greedy, collective, sessions, inflight, hist})
	b := build([]func(*Registry){hist, inflight, sessions, collective, greedy})
	if a != b {
		t.Fatalf("render depends on creation order:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	// And the order is the sorted one, so goldens stay stable.
	if !strings.Contains(a, "inflight") || strings.Index(a, "# HELP inflight") > strings.Index(a, "# HELP latency_seconds") {
		t.Errorf("families not sorted by name:\n%s", a)
	}
	if strings.Index(a, `solver="collective"`) > strings.Index(a, `solver="greedy"`) {
		t.Errorf("series not sorted by label:\n%s", a)
	}
}

func TestCounterIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	if a != b {
		t.Fatal("same name should return the same counter")
	}
	if l1, l2 := r.CounterWith("y_total", "y", "k", "v"), r.CounterWith("y_total", "y", "k", "w"); l1 == l2 {
		t.Fatal("distinct label values should be distinct series")
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c_total", "c").Inc()
				r.Histogram("h_seconds", "h", nil).Observe(0.001)
				r.CounterWith("l_total", "l", "k", "v").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "c").Value(); got != 8000 {
		t.Errorf("c_total = %v, want 8000", got)
	}
	if got := r.Histogram("h_seconds", "h", nil).Count(); got != 8000 {
		t.Errorf("h_seconds count = %d, want 8000", got)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}
