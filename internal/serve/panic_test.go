package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"schemamap/internal/core"
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
