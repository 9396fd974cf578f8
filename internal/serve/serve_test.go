package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"schemamap/internal/core"
	"schemamap/internal/ibench"
)

// testScenario generates a small seeded scenario once per run.
var (
	scOnce sync.Once
	scVal  *ibench.Scenario
)

func testScenario(t testing.TB) *ibench.Scenario {
	t.Helper()
	scOnce.Do(func() {
		cfg := ibench.DefaultConfig(5, 42)
		cfg.PiCorresp = 20
		cfg.PiErrors = 10
		cfg.PiUnexplained = 10
		sc, err := ibench.Generate(cfg)
		if err != nil {
			panic(err)
		}
		scVal = sc
	})
	return scVal
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Scenarios == nil {
		sc := testScenario(t)
		cfg.Scenarios = map[string]ScenarioSource{
			"test": func() (*ibench.Scenario, error) { return sc, nil },
		}
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// testClient bounds every test request, so a wedged handler fails the
// test instead of hanging it.
var testClient = &http.Client{Timeout: time.Minute}

// call does one JSON request and decodes the response into out.
func call(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := testClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(b) > 0 {
		if err := json.Unmarshal(b, out); err != nil {
			t.Fatalf("decode %s %s response %q: %v", method, url, b, err)
		}
	}
	return resp.StatusCode
}

func TestSessionLifecycleRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sc := testScenario(t)

	// Create by name.
	var created createResponse
	if code := call(t, "POST", ts.URL+"/sessions", createRequest{Name: "test"}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if created.ID == "" || created.Candidates != len(sc.Candidates) || created.JTuples != sc.J.Len() {
		t.Fatalf("create response %+v", created)
	}

	// Solve cold, then warm.
	var solved solveResponse
	if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/solve", solveRequest{Solver: "greedy"}, &solved); code != http.StatusOK {
		t.Fatalf("solve: status %d", code)
	}
	if solved.Solver != "greedy" || solved.Candidates != len(sc.Candidates) || solved.Warm {
		t.Fatalf("solve response %+v", solved)
	}
	var warm solveResponse
	if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/solve", solveRequest{Solver: "greedy", Warm: true}, &warm); code != http.StatusOK {
		t.Fatalf("warm solve: status %d", code)
	}
	if !warm.Warm {
		t.Fatal("second solve did not warm-start")
	}
	if warm.Objective.Total != solved.Objective.Total {
		t.Fatalf("warm objective %g != cold %g on an unchanged target", warm.Objective.Total, solved.Objective.Total)
	}

	// Append a fresh tuple to an existing target relation.
	rel := sc.J.Relations()[0]
	arity := len(sc.J.Tuples(rel)[0].Args)
	args := make([]string, arity)
	for i := range args {
		args[i] = fmt.Sprintf("c:roundtrip%d", i)
	}
	var appended appendResponse
	code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/append",
		appendRequest{Tuples: []wireTuple{{Rel: rel, Args: args}}}, &appended)
	if code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}
	if appended.Added != 1 || !appended.Forked || appended.JTuples != sc.J.Len()+1 {
		t.Fatalf("append response %+v", appended)
	}

	// Status reflects the session's history.
	var st statusResponse
	if code := call(t, "GET", ts.URL+"/sessions/"+created.ID, nil, &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.Solves != 2 || st.Appends != 1 || st.AppendedTuples != 1 || st.SharedPrepare {
		t.Fatalf("status response %+v", st)
	}
	if st.LastObjective == nil {
		t.Fatal("status missing last objective")
	}

	// Delete, then 404.
	if code := call(t, "DELETE", ts.URL+"/sessions/"+created.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if code := call(t, "GET", ts.URL+"/sessions/"+created.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("status after delete: %d", code)
	}
}

// A request with sharded:true must route through the shard wrapper —
// the effective solver name is reported — and return the same
// objective as the unsharded solve of the same session.
func TestShardedSolveRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var created createResponse
	if code := call(t, "POST", ts.URL+"/sessions", createRequest{Name: "test"}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}

	var plain, sharded solveResponse
	if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/solve", solveRequest{Solver: "greedy"}, &plain); code != http.StatusOK {
		t.Fatalf("solve: status %d", code)
	}
	if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/solve", solveRequest{Solver: "greedy", Sharded: true}, &sharded); code != http.StatusOK {
		t.Fatalf("sharded solve: status %d", code)
	}
	if sharded.Solver != "sharded-greedy" {
		t.Fatalf("sharded solve reported solver %q, want sharded-greedy", sharded.Solver)
	}
	if sharded.Objective.Total > plain.Objective.Total+1e-9 {
		t.Fatalf("sharded objective %g worse than unsharded %g", sharded.Objective.Total, plain.Objective.Total)
	}

	// An unknown inner solver is a 400, not a crash.
	if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/solve", solveRequest{Solver: "nope", Sharded: true}, nil); code != http.StatusBadRequest {
		t.Fatalf("sharded solve with unknown solver: status %d, want 400", code)
	}
}

// Sessions over the same scenario content must share one prepared
// problem, and an append must fork privately without touching the
// sibling session.
func TestSharedPrepareAndCopyOnAppend(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sc := testScenario(t)
	raw, err := ibench.MarshalScenario(sc)
	if err != nil {
		t.Fatal(err)
	}

	var a, b createResponse
	call(t, "POST", ts.URL+"/sessions", createRequest{Scenario: raw}, &a)
	call(t, "POST", ts.URL+"/sessions", createRequest{Scenario: raw}, &b)
	if a.ScenarioKey != b.ScenarioKey {
		t.Fatalf("equal uploads got different keys: %q vs %q", a.ScenarioKey, b.ScenarioKey)
	}
	st := s.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Fatalf("hits/misses = %v/%v, want 1/1", st.CacheHits, st.CacheMisses)
	}
	if s.CacheHitRatio() != 0.5 {
		t.Fatalf("hit ratio %v", s.CacheHitRatio())
	}

	// Different weights must not share a problem.
	var c createResponse
	call(t, "POST", ts.URL+"/sessions", createRequest{Scenario: raw, Weights: &wireWeights{Explain: 2, Error: 1, Size: 1}}, &c)
	if c.ScenarioKey == a.ScenarioKey {
		t.Fatal("different weights shared a scenario key")
	}

	// Append on session a forks; session b's target is untouched.
	rel := sc.J.Relations()[0]
	arity := len(sc.J.Tuples(rel)[0].Args)
	args := make([]string, arity)
	for i := range args {
		args[i] = fmt.Sprintf("c:fork%d", i)
	}
	var app appendResponse
	call(t, "POST", ts.URL+"/sessions/"+a.ID+"/append", appendRequest{Tuples: []wireTuple{{Rel: rel, Args: args}}}, &app)
	if !app.Forked {
		t.Fatal("first append on a shared session did not fork")
	}
	if got := s.Stats().Forks; got != 1 {
		t.Fatalf("fork counter = %v", got)
	}
	var stB statusResponse
	call(t, "GET", ts.URL+"/sessions/"+b.ID, nil, &stB)
	if stB.JTuples != sc.J.Len() {
		t.Fatalf("sibling session target grew: %d vs %d", stB.JTuples, sc.J.Len())
	}
	if !stB.SharedPrepare {
		t.Fatal("sibling session should still be shared")
	}
	// A second append on a must not fork again.
	args[0] = "c:fork-second"
	call(t, "POST", ts.URL+"/sessions/"+a.ID+"/append", appendRequest{Tuples: []wireTuple{{Rel: rel, Args: args}}}, &app)
	if app.Forked || s.Stats().Forks != 1 {
		t.Fatal("second append forked again")
	}
}

// blockSolver blocks until the current release channel closes (or ctx
// ends) — the drain test's controllable in-flight solve. The channel
// is swapped per test run so -count=N reruns get a fresh gate.
type blockSolver struct{}

var blockRelease atomic.Value // chan struct{}

func (blockSolver) Name() string { return "block" }

func (blockSolver) Solve(ctx context.Context, p *core.Problem, opts ...core.SolveOption) (*core.Selection, error) {
	select {
	case <-blockRelease.Load().(chan struct{}):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	sel := make([]bool, p.NumCandidates())
	return &core.Selection{Chosen: sel, Objective: p.Objective(sel), Solver: "block"}, nil
}

func init() {
	blockRelease.Store(make(chan struct{}))
	core.Register("block", func() core.Solver { return blockSolver{} })
}

// Graceful drain: an in-flight solve completes after BeginDrain while
// new requests get 503; Drain returns once the solve is done.
func TestGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	blockRelease.Store(release)
	s, ts := newTestServer(t, Config{})
	var created createResponse
	call(t, "POST", ts.URL+"/sessions", createRequest{Name: "test"}, &created)

	type result struct {
		code int
		resp solveResponse
	}
	inflight := make(chan result, 1)
	go func() {
		var r result
		r.code = call(t, "POST", ts.URL+"/sessions/"+created.ID+"/solve", solveRequest{Solver: "block"}, &r.resp)
		inflight <- r
	}()

	// Wait for the solve to be admitted, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for s.m.inflightGauge.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("solve was never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	s.BeginDrain()

	// New API requests and health checks are rejected…
	if code := call(t, "POST", ts.URL+"/sessions", createRequest{Name: "test"}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: status %d", code)
	}
	if code := call(t, "GET", ts.URL+"/healthz", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d", code)
	}
	// …but metrics stay scrapable.
	if code := call(t, "GET", ts.URL+"/metrics", nil, nil); code != http.StatusOK {
		t.Fatalf("metrics while draining: status %d", code)
	}

	// The in-flight solve is still running; Drain must wait for it.
	if err := s.Drain(50 * time.Millisecond); err == nil {
		t.Fatal("Drain returned before the in-flight solve finished")
	}
	close(release)
	r := <-inflight
	if r.code != http.StatusOK {
		t.Fatalf("in-flight solve after drain: status %d", r.code)
	}
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain after completion: %v", err)
	}
}

func TestIdleReaperAndLRUEviction(t *testing.T) {
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	s, ts := newTestServer(t, Config{MaxSessions: 2, IdleTimeout: time.Minute, Now: clock})

	var s1, s2, s3 createResponse
	call(t, "POST", ts.URL+"/sessions", createRequest{Name: "test"}, &s1)
	call(t, "POST", ts.URL+"/sessions", createRequest{Name: "test"}, &s2)
	call(t, "POST", ts.URL+"/sessions", createRequest{Name: "test"}, &s3)

	// MaxSessions=2: the oldest (s1) was evicted.
	if code := call(t, "GET", ts.URL+"/sessions/"+s1.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("LRU-evicted session still alive: %d", code)
	}
	if code := call(t, "GET", ts.URL+"/sessions/"+s2.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("s2 missing: %d", code)
	}

	// Touch s2, let s3 go idle past the timeout: only s3 is reaped.
	now = now.Add(59 * time.Second)
	call(t, "GET", ts.URL+"/sessions/"+s2.ID, nil, nil)
	now = now.Add(2 * time.Second)
	if got := s.reapIdle(now); got != 1 {
		t.Fatalf("reaped %d sessions, want 1 (s3)", got)
	}
	if code := call(t, "GET", ts.URL+"/sessions/"+s3.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("idle session survived the reaper: %d", code)
	}
	if code := call(t, "GET", ts.URL+"/sessions/"+s2.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("fresh session reaped: %d", code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var created createResponse
	call(t, "POST", ts.URL+"/sessions", createRequest{Name: "test"}, &created)
	call(t, "POST", ts.URL+"/sessions/"+created.ID+"/solve", solveRequest{Solver: "greedy"}, nil)
	// One mutation of each kind: remove a target tuple, append it back,
	// remove a source tuple.
	sc := testScenario(t)
	victim := []wireTuple{wireOf(sc.J.All()[0])}
	for _, m := range []struct {
		path string
		body any
	}{
		{"remove", removeRequest{Tuples: victim}},
		{"append", appendRequest{Tuples: victim}},
		{"source-delta", sourceDeltaRequest{Remove: []wireTuple{wireOf(sc.I.All()[0])}}},
	} {
		if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/"+m.path, m.body, nil); code != http.StatusOK {
			t.Fatalf("%s: status %d", m.path, code)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	out := string(b)
	for _, want := range []string{
		"serve_sessions_created_total 1",
		"serve_prepare_cache_misses_total 1",
		`serve_solves_total{solver="greedy"} 1`,
		// The create's prepare, the fork before the first target
		// mutation and the detaching fork before the source delta.
		"serve_prepare_seconds_count 3",
		`serve_solve_seconds_count{solver="greedy"} 1`,
		"# TYPE serve_solve_seconds histogram",
		"# TYPE serve_mutate_seconds histogram",
		`serve_mutate_seconds_count{op="append"} 1`,
		`serve_mutate_seconds_count{op="remove"} 1`,
		`serve_mutate_seconds_count{op="source_delta"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// The /metrics body is a deterministic function of metric state: the
// skeleton (HELP/TYPE lines, metric names, label blocks, line order)
// must be identical across two servers whose labelled series were
// created in opposite arrival orders, and two quiet scrapes of one
// server must be byte-identical. Values (latencies) differ per run, so
// the cross-server comparison strips them.
func TestMetricsRenderingDeterministic(t *testing.T) {
	skeleton := func(solveOrder []string) (string, string) {
		t.Helper()
		_, ts := newTestServer(t, Config{})
		var created createResponse
		call(t, "POST", ts.URL+"/sessions", createRequest{Name: "test"}, &created)
		for _, solver := range solveOrder {
			if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/solve", solveRequest{Solver: solver}, nil); code != http.StatusOK {
				t.Fatalf("solve %s: status %d", solver, code)
			}
		}
		get := func() string {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		first := get()
		second := get()
		var lines []string
		for _, line := range strings.Split(first, "\n") {
			// Keep each line's name+labels, drop the value column.
			if fields := strings.Fields(line); len(fields) > 0 && !strings.HasPrefix(line, "#") {
				lines = append(lines, fields[0])
			} else {
				lines = append(lines, line)
			}
		}
		return strings.Join(lines, "\n"), first + "\x00" + second
	}

	skelA, scrapesA := skeleton([]string{"greedy", "independent"})
	skelB, _ := skeleton([]string{"independent", "greedy"})
	if skelA != skelB {
		t.Errorf("metrics skeleton depends on series arrival order:\n--- A ---\n%s\n--- B ---\n%s", skelA, skelB)
	}
	if parts := strings.Split(scrapesA, "\x00"); parts[0] != parts[1] {
		t.Errorf("two quiet scrapes differ:\n--- first ---\n%s--- second ---\n%s", parts[0], parts[1])
	}
}

// Weights from the client must be finite and non-negative; anything
// else is a 400 and creates no session.
func TestCreateRejectsInvalidWeights(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, w := range []wireWeights{
		{Explain: -1, Error: 1, Size: 1},
		{Explain: 1, Error: -0.5, Size: 1},
		{Explain: 1, Error: 1, Size: -2},
	} {
		if code := call(t, "POST", ts.URL+"/sessions", createRequest{Name: "test", Weights: &w}, nil); code != http.StatusBadRequest {
			t.Errorf("weights %+v: status %d, want 400", w, code)
		}
	}
	// JSON has no NaN or infinity; an overflowing number fails decoding.
	body := `{"name":"test","weights":{"explain":1e999,"error":1,"size":1}}`
	resp, err := testClient.Post(ts.URL+"/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("overflowing weight: status %d, want 400", resp.StatusCode)
	}
	if got := s.Stats().SessionsCreated; got != 0 {
		t.Fatalf("%v sessions created from invalid weights", got)
	}
	zero := wireWeights{}
	if code := call(t, "POST", ts.URL+"/sessions", createRequest{Name: "test", Weights: &zero}, nil); code != http.StatusCreated {
		t.Fatalf("zero weights: status %d, want 201", code)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code := call(t, "POST", ts.URL+"/sessions", map[string]string{"bogus": "field"}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", code)
	}
	if code := call(t, "POST", ts.URL+"/sessions", createRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty create: status %d", code)
	}
	if code := call(t, "POST", ts.URL+"/sessions", createRequest{Name: "nope"}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown scenario: status %d", code)
	}
	var created createResponse
	call(t, "POST", ts.URL+"/sessions", createRequest{Name: "test"}, &created)
	if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/solve", solveRequest{Solver: "nope"}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown solver: status %d", code)
	}
	if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/append", appendRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty append: status %d", code)
	}
	if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/append",
		appendRequest{Tuples: []wireTuple{{Rel: "r", Args: []string{"garbage"}}}}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad value encoding: status %d", code)
	}
	if code := call(t, "POST", ts.URL+"/sessions/missing/solve", solveRequest{}, nil); code != http.StatusNotFound {
		t.Fatalf("solve on missing session: status %d", code)
	}
}
