package serve

// Endpoint tests for the lifecycle extensions: target removal,
// source deltas, and the solve-vs-remove concurrency contract.

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"schemamap/internal/data"
	"schemamap/internal/ibench"
)

// wireOf encodes a data tuple for the JSON API.
func wireOf(t data.Tuple) wireTuple {
	args := make([]string, len(t.Args))
	for i, v := range t.Args {
		args[i] = ibench.EncodeValue(v)
	}
	return wireTuple{Rel: t.Rel, Args: args}
}

func TestRemoveEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sc := testScenario(t)

	var created createResponse
	if code := call(t, "POST", ts.URL+"/sessions", createRequest{Name: "test"}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	victims := sc.J.All()[:2]
	var removed removeResponse
	code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/remove",
		removeRequest{Tuples: []wireTuple{wireOf(victims[0]), wireOf(victims[1])}}, &removed)
	if code != http.StatusOK {
		t.Fatalf("remove: status %d", code)
	}
	if removed.Removed != 2 || !removed.Forked || removed.JTuples != sc.J.Len()-2 {
		t.Fatalf("remove response %+v", removed)
	}
	if got := s.Stats().RemovedTuples; got != 2 {
		t.Fatalf("removed-tuples counter %v, want 2", got)
	}

	// The status and any later mutation report live tuples.
	var st statusResponse
	if code := call(t, "GET", ts.URL+"/sessions/"+created.ID, nil, &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.JTuples != sc.J.Len()-2 || st.SharedPrepare {
		t.Fatalf("status after remove %+v", st)
	}

	// Solving the shrunk session still works.
	var solved solveResponse
	if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/solve", solveRequest{Solver: "greedy"}, &solved); code != http.StatusOK {
		t.Fatalf("solve after remove: status %d", code)
	}

	// The cache's shared problem kept its full target: a second session
	// over the same scenario still sees every tuple.
	var other createResponse
	if code := call(t, "POST", ts.URL+"/sessions", createRequest{Name: "test"}, &other); code != http.StatusCreated {
		t.Fatalf("second create: status %d", code)
	}
	if other.JTuples != sc.J.Len() {
		t.Fatalf("removal leaked into the shared problem: %d tuples, want %d", other.JTuples, sc.J.Len())
	}

	// Removing an unknown (already removed) tuple is a 409 conflict.
	if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/remove",
		removeRequest{Tuples: []wireTuple{wireOf(victims[0])}}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate remove: status %d, want 409", code)
	}
	// An empty batch is a 400.
	if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/remove", removeRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty remove: status %d, want 400", code)
	}
}

func TestSourceDeltaEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sc := testScenario(t)

	var created createResponse
	if code := call(t, "POST", ts.URL+"/sessions", createRequest{Name: "test"}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	src := sc.I.All()
	var resp sourceDeltaResponse
	code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/source-delta",
		sourceDeltaRequest{Remove: []wireTuple{wireOf(src[0]), wireOf(src[1])}}, &resp)
	if code != http.StatusOK {
		t.Fatalf("source-delta: status %d", code)
	}
	if resp.Removed != 2 || resp.Added != 0 || !resp.Detached || resp.SourceTuples != sc.I.Len()-2 {
		t.Fatalf("source-delta response %+v", resp)
	}
	forksAfterFirst := s.Stats().Forks

	// Putting one tuple back must not fork again (already detached) and
	// must count exactly the one effective add.
	code = call(t, "POST", ts.URL+"/sessions/"+created.ID+"/source-delta",
		sourceDeltaRequest{Add: []wireTuple{wireOf(src[0]), wireOf(src[0])}}, &resp)
	if code != http.StatusOK {
		t.Fatalf("second source-delta: status %d", code)
	}
	if resp.Added != 1 || resp.Removed != 0 || resp.SourceTuples != sc.I.Len()-1 {
		t.Fatalf("second source-delta response %+v", resp)
	}
	if got := s.Stats().Forks; got != forksAfterFirst {
		t.Fatalf("detached session forked again: %v forks, had %v", got, forksAfterFirst)
	}
	if got := s.Stats().SourceDeltas; got != 2 {
		t.Fatalf("source-delta counter %v, want 2", got)
	}

	// The session is solvable over the mutated source, and the shared
	// scenario's source is untouched for new sessions.
	if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/solve", solveRequest{Solver: "greedy"}, nil); code != http.StatusOK {
		t.Fatalf("solve after source-delta: status %d", code)
	}
	if sc.I.Len() != len(src) {
		t.Fatalf("source delta mutated the shared scenario: %d tuples, want %d", sc.I.Len(), len(src))
	}

	// An empty delta is a 400.
	if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/source-delta", sourceDeltaRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty source-delta: status %d, want 400", code)
	}
}

// Solves racing removals on one session must serialise on the session
// lock: every request succeeds and the race detector stays quiet.
func TestConcurrentSolveAndRemove(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sc := testScenario(t)

	var created createResponse
	if code := call(t, "POST", ts.URL+"/sessions", createRequest{Name: "test"}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	victims := sc.J.All()[:6]
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				var solved solveResponse
				if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/solve",
					solveRequest{Solver: "greedy"}, &solved); code != http.StatusOK {
					errs <- fmt.Errorf("solve: status %d", code)
					return
				}
			}
		}()
	}
	for _, v := range victims {
		var removed removeResponse
		if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/remove",
			removeRequest{Tuples: []wireTuple{wireOf(v)}}, &removed); code != http.StatusOK {
			t.Errorf("remove: status %d", code)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var st statusResponse
	if code := call(t, "GET", ts.URL+"/sessions/"+created.ID, nil, &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.JTuples != sc.J.Len()-len(victims) {
		t.Fatalf("after racing removals: %d tuples, want %d", st.JTuples, sc.J.Len()-len(victims))
	}
}

// Full-lifecycle churn under contention: solves race target removals
// AND source deltas on one session. Removal forks, the first source
// delta detaches, warm re-solves continue throughout — every request
// must succeed, the evidence counts must land exactly, and the race
// detector (this test is in the CI race job's package set) must stay
// quiet. CI's race job also drives the batch equivalent via
// benchrun -churn.
func TestConcurrentChurn(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sc := testScenario(t)

	var created createResponse
	if code := call(t, "POST", ts.URL+"/sessions", createRequest{Name: "test"}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	victims := sc.J.All()[:4]
	srcVictims := sc.I.All()[:4]

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/solve",
					solveRequest{Solver: "greedy"}, nil); code != http.StatusOK {
					errs <- fmt.Errorf("solve: status %d", code)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, v := range srcVictims {
			if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/source-delta",
				sourceDeltaRequest{Remove: []wireTuple{wireOf(v)}}, nil); code != http.StatusOK {
				errs <- fmt.Errorf("source-delta: status %d", code)
				return
			}
		}
	}()
	for _, v := range victims {
		if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/remove",
			removeRequest{Tuples: []wireTuple{wireOf(v)}}, nil); code != http.StatusOK {
			t.Errorf("remove: status %d", code)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var st statusResponse
	if code := call(t, "GET", ts.URL+"/sessions/"+created.ID, nil, &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.JTuples != sc.J.Len()-len(victims) {
		t.Fatalf("after churn: %d target tuples, want %d", st.JTuples, sc.J.Len()-len(victims))
	}
	if st.SourceDeltas != int64(len(srcVictims)) || st.Removes != int64(len(victims)) {
		t.Fatalf("churn counters %+v, want %d source deltas and %d removes", st, len(srcVictims), len(victims))
	}
	// A final solve on the fully churned session still answers.
	if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/solve", solveRequest{Solver: "greedy"}, nil); code != http.StatusOK {
		t.Fatalf("final solve: status %d", code)
	}
}

// The routes table and the handler must agree — and the table must
// contain the endpoints the docs audit expects.
func TestRoutesMatchHandler(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, rt := range Routes() {
		url := ts.URL + rt.Path
		// Any response but 404/405 proves the route is registered; use
		// a bogus id so session routes answer 404 "no such session" —
		// distinguish by body shape instead. Simplest reliable check:
		// the mux must not answer 405 (method not allowed) for the
		// declared method.
		req, err := http.NewRequest(rt.Method, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusMethodNotAllowed {
			t.Errorf("%s %s: 405 — route not registered for its declared method", rt.Method, rt.Path)
		}
	}
}

// Target tuples whose values differ only in where a comma falls are
// distinct facts over the wire: an uploaded scenario keeps both, and
// removing one leaves the other removable.
func TestRemoveCommaValues(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sc := *testScenario(t)
	sc.J = sc.J.Clone()
	a, b := data.NewTuple("comma_rel", "x,y", "z"), data.NewTuple("comma_rel", "x", "y,z")
	sc.J.Add(a)
	sc.J.Add(b)
	body, err := ibench.MarshalScenario(&sc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var created createResponse
	if code := call(t, "POST", ts.URL+"/sessions", createRequest{Scenario: body}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if created.JTuples != sc.J.Len() {
		t.Fatalf("session holds %d target tuples, want %d", created.JTuples, sc.J.Len())
	}
	url := ts.URL + "/sessions/" + created.ID + "/remove"
	var removed removeResponse
	if code := call(t, "POST", url, removeRequest{Tuples: []wireTuple{wireOf(a)}}, &removed); code != http.StatusOK {
		t.Fatalf("remove a: status %d", code)
	}
	if removed.Removed != 1 || removed.JTuples != sc.J.Len()-1 {
		t.Fatalf("remove a response %+v", removed)
	}
	if code := call(t, "POST", url, removeRequest{Tuples: []wireTuple{wireOf(a)}}, nil); code != http.StatusConflict {
		t.Fatalf("second remove of a: status %d, want 409", code)
	}
	if code := call(t, "POST", url, removeRequest{Tuples: []wireTuple{wireOf(b)}}, &removed); code != http.StatusOK {
		t.Fatalf("remove b: status %d (removing a took b with it)", code)
	}
	if removed.JTuples != sc.J.Len()-2 {
		t.Fatalf("remove b response %+v", removed)
	}
}
