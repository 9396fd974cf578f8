package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"schemamap/internal/core"
	"schemamap/internal/data"
)

// panicSolver panics on every solve: the injected failure of
// TestPanickingSolveLeavesSessionUsable.
type panicSolver struct{}

func (panicSolver) Name() string { return "test-panic" }

func (panicSolver) Solve(context.Context, *core.Problem, ...core.SolveOption) (*core.Selection, error) {
	panic("injected solve failure")
}

func init() {
	core.Register("test-panic", func() core.Solver { return panicSolver{} })
}

// A panicking solve returns 500 and counts as a solve error; the
// session's lock is released, so a later append, solve and delete on
// the same session succeed and the server still drains.
func TestPanickingSolveLeavesSessionUsable(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sc := testScenario(t)
	var created createResponse
	if code := call(t, "POST", ts.URL+"/sessions", createRequest{Name: "test"}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	base := ts.URL + "/sessions/" + created.ID

	var failed errorResponse
	if code := call(t, "POST", base+"/solve", solveRequest{Solver: "test-panic"}, &failed); code != http.StatusInternalServerError {
		t.Fatalf("panicking solve: status %d, want 500", code)
	}
	if !strings.Contains(failed.Error, "injected solve failure") {
		t.Fatalf("panicking solve: error %q does not report the panic", failed.Error)
	}
	if got := s.m.solveErrors.Value(); got != 1 {
		t.Fatalf("solve errors = %v, want 1", got)
	}

	rel := sc.J.Relations()[0]
	args := make([]string, len(sc.J.Tuples(rel)[0].Args))
	for i := range args {
		args[i] = fmt.Sprintf("c:afterpanic%d", i)
	}
	var appended appendResponse
	if code := call(t, "POST", base+"/append", appendRequest{Tuples: []wireTuple{{Rel: rel, Args: args}}}, &appended); code != http.StatusOK {
		t.Fatalf("append after panic: status %d", code)
	}
	if appended.Added != 1 {
		t.Fatalf("append after panic: %+v", appended)
	}
	var solved solveResponse
	if code := call(t, "POST", base+"/solve", solveRequest{Solver: "greedy"}, &solved); code != http.StatusOK {
		t.Fatalf("greedy solve after panic: status %d", code)
	}
	if solved.Candidates != len(sc.Candidates) {
		t.Fatalf("greedy solve after panic: %+v", solved)
	}
	if code := call(t, "DELETE", base, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete after panic: status %d", code)
	}
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain after panic: %v", err)
	}
}

// A mutation that panics part-way — here after growing J, before the
// problem re-records its version — answers 500 with the panic text and
// drops the half-mutated session. A sibling session on the same
// scenario still solves, and the server still drains.
func TestPanickingMutationDropsSession(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sc := testScenario(t)
	var victim, sibling createResponse
	for _, c := range []*createResponse{&victim, &sibling} {
		if code := call(t, "POST", ts.URL+"/sessions", createRequest{Name: "test"}, c); code != http.StatusCreated {
			t.Fatalf("create: status %d", code)
		}
	}

	rel := sc.J.Relations()[0]
	args := make([]string, len(sc.J.Tuples(rel)[0].Args))
	for i := range args {
		args[i] = fmt.Sprintf("c:halfway%d", i)
	}
	body, err := json.Marshal(appendRequest{Tuples: []wireTuple{{Rel: rel, Args: args}}})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/sessions/"+victim.ID+"/append", bytes.NewReader(body))
	req.SetPathValue("id", victim.ID)
	rec := httptest.NewRecorder()
	s.mutateTuples(rec, req, func(p *core.Problem, tuples []data.Tuple) (*core.TargetDelta, error) {
		p.J.Add(tuples[0])
		panic("injected mutation failure")
	}, nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking mutation: status %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "injected mutation failure") {
		t.Fatalf("panicking mutation: body %q does not report the panic", rec.Body.String())
	}

	base := ts.URL + "/sessions/" + victim.ID
	if code := call(t, "GET", base, nil, nil); code != http.StatusNotFound {
		t.Fatalf("status of the dropped session: %d, want 404", code)
	}
	if code := call(t, "POST", base+"/solve", solveRequest{Solver: "greedy"}, nil); code != http.StatusNotFound {
		t.Fatalf("solve on the dropped session: %d, want 404", code)
	}
	var solved solveResponse
	if code := call(t, "POST", ts.URL+"/sessions/"+sibling.ID+"/solve", solveRequest{Solver: "greedy"}, &solved); code != http.StatusOK {
		t.Fatalf("sibling solve: status %d", code)
	}
	if solved.Candidates != len(sc.Candidates) {
		t.Fatalf("sibling solve: %+v", solved)
	}
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain after a panicking mutation: %v", err)
	}
}
