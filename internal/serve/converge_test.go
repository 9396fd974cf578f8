package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"schemamap/internal/core"
	"schemamap/internal/psl"
)

func init() {
	core.Register("test-capped", func() core.Solver {
		return core.CollectiveSolver{ADMM: psl.ADMMOptions{MaxIterations: 1}}
	})
}

// The solve response always carries "unconverged": true for an
// iteration-capped relaxation, false for a default collective solve.
func TestSolveResponseReportsConvergence(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var created createResponse
	if code := call(t, "POST", ts.URL+"/sessions", createRequest{Name: "test"}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	for _, tc := range []struct {
		solver string
		want   bool
	}{{"test-capped", true}, {"collective", false}} {
		var raw map[string]json.RawMessage
		if code := call(t, "POST", ts.URL+"/sessions/"+created.ID+"/solve", solveRequest{Solver: tc.solver}, &raw); code != http.StatusOK {
			t.Fatalf("%s solve: status %d", tc.solver, code)
		}
		var got bool
		if err := json.Unmarshal(raw["unconverged"], &got); err != nil {
			t.Fatalf("%s solve: unconverged field %q: %v", tc.solver, raw["unconverged"], err)
		}
		if got != tc.want {
			t.Errorf("%s solve: unconverged=%v, want %v", tc.solver, got, tc.want)
		}
	}
}
