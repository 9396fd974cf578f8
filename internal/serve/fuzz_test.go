package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"schemamap/internal/ibench"
)

// mutationRoutes are the session routes whose bodies mutate the
// session's problem.
var mutationRoutes = []string{"append", "remove", "source-delta"}

// FuzzMutationBody POSTs arbitrary bytes to every mutation route of a
// fresh session. Each answer must be 200, 400, 404 or 409 — never a
// 500 from a panicking mutation — and the session must still answer a
// greedy solve with 200 afterwards.
func FuzzMutationBody(f *testing.F) {
	sc := testScenario(f)
	j := wireOf(sc.J.All()[0])
	i := wireOf(sc.I.All()[0])
	for _, seed := range []any{
		appendRequest{Tuples: []wireTuple{j}},
		appendRequest{Tuples: []wireTuple{{Rel: j.Rel, Args: append(append([]string(nil), j.Args...), "c:extra")}}},
		sourceDeltaRequest{Remove: []wireTuple{i}},
		sourceDeltaRequest{Add: []wireTuple{{Rel: i.Rel, Args: []string{"c:short"}}}},
		sourceDeltaRequest{Add: []wireTuple{{Rel: "unknown", Args: []string{"n:1", "c:x"}}}},
	} {
		b, err := json.Marshal(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, seed := range []string{"", "{}", `{"tuples":[]}`, `{"tuples":[{"rel":"","args":[]}]}`, `{"tuples":[{"rel":"r","args":["?"]}]}`, "null", "[", `{"add":null,"remove":[{"rel":"r"}]}`} {
		f.Add([]byte(seed))
	}

	s := NewServer(Config{Scenarios: map[string]ScenarioSource{
		"test": func() (*ibench.Scenario, error) { return sc, nil },
	}})
	f.Cleanup(s.Close)
	h := s.Handler()
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	mustJSON := func(t *testing.T, v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve(http.MethodPost, "/sessions", mustJSON(t, createRequest{Name: "test"}))
		var created createResponse
		if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &created) != nil {
			t.Fatalf("create: status %d, body %q", rec.Code, rec.Body.String())
		}
		base := "/sessions/" + created.ID
		defer serve(http.MethodDelete, base, nil)
		for _, route := range mutationRoutes {
			rec := serve(http.MethodPost, base+"/"+route, body)
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict:
			default:
				t.Fatalf("POST %s: status %d, body %q", route, rec.Code, rec.Body.String())
			}
			if rec := serve(http.MethodPost, base+"/solve", mustJSON(t, solveRequest{Solver: "greedy"})); rec.Code != http.StatusOK {
				t.Fatalf("greedy solve after POST %s: status %d, body %q", route, rec.Code, rec.Body.String())
			}
		}
	})
}
