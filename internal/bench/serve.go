package bench

// The serve trace replays stream and solve traces over HTTP: one
// in-process session server (internal/serve) per scale, driven by
// concurrent sessions. A quarter of the sessions stream — upload a
// variant's initial target, then replay its append steps with warm
// re-solves — and the rest create the variant by corpus name (sharing
// prepared problems through the server's content-hash cache) and
// solve once. Rows carry client-observed p50/p99 latencies.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"schemamap/internal/data"
	"schemamap/internal/ibench"
	"schemamap/internal/serve"
)

// The serve load. The corpus scale runs after the requested scales
// at a quarter of the sessions and is recorded, not gated.
const (
	serveSessions    = 120
	serveVariants    = 4 // distinct scenario seeds per scale
	serveBatches     = 4 // append steps per streaming session
	serveStreamEvery = 4 // every 4th session round streams
	serveCorpusScale = "L"
)

// load is one serve run's shape.
type load struct {
	sessions, variants, batches int
	recordedOnly                bool
}

func replayServe(ctx context.Context, specs []Spec, solvers []string, par int, emit func(Row)) error {
	corpus, err := SpecFor(serveCorpusScale)
	if err != nil {
		return err
	}
	run := func(spec Spec, ld load) error {
		rows, err := serveLoad(ctx, spec, solvers, ld, par)
		for _, r := range rows {
			emit(r)
		}
		return err
	}
	for _, spec := range specs {
		if err := run(spec, load{serveSessions, serveVariants, serveBatches, false}); err != nil {
			return err
		}
	}
	return run(corpus, load{serveSessions / 4, serveVariants, serveBatches, true})
}

// variant is one scenario a serve run cycles through: its corpus name,
// its stream trace, and the create body that uploads the stream's
// initial state.
type variant struct {
	name   string
	stream *trace
	upload map[string]any
}

// serveLoad boots one server over a variant corpus of the spec and
// drives it with ld.sessions concurrent clients, solvers round-robin.
func serveLoad(ctx context.Context, spec Spec, solvers []string, ld load, par int) ([]Row, error) {
	variants := make([]variant, ld.variants)
	corpus := make(map[string]serve.ScenarioSource, ld.variants)
	for i := range variants {
		vspec := spec
		vspec.Seed = spec.Seed + int64(i)
		tr, err := newTrace(traceSolve, vspec)
		if err != nil {
			return nil, err
		}
		if tr, err = tr.streamed(ld.batches); err != nil {
			return nil, err
		}
		upload, err := uploadBody(tr)
		if err != nil {
			return nil, err
		}
		sc := tr.sc
		variants[i] = variant{name: fmt.Sprintf("%s-v%d", spec.Name, i), stream: tr, upload: upload}
		corpus[variants[i].name] = func() (*ibench.Scenario, error) { return sc, nil }
	}
	srv := serve.NewServer(serve.Config{
		MaxSessions: ld.sessions + 8,
		Parallelism: par,
		IdleTimeout: -1, // sessions delete themselves
		Scenarios:   corpus,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type track struct {
		mu                     sync.Mutex
		create, solve, appends []float64
		errors                 int
		sessions, streamers    int
	}
	tracks := make([]*track, len(solvers))
	for i := range tracks {
		tracks[i] = &track{}
	}
	var wg sync.WaitGroup
	for i := 0; i < ld.sessions; i++ {
		tr := tracks[i%len(solvers)]
		solver, v := solvers[i%len(solvers)], variants[i%len(variants)]
		// Pick streamers by solver round, not raw index, so they spread
		// across every solver regardless of stride alignment.
		streamer := (i/len(solvers))%serveStreamEvery == 0
		var create any = map[string]any{"name": v.name}
		var steps []ibench.ChurnStep
		tr.sessions++
		if streamer {
			create, steps = v.upload, v.stream.steps
			tr.streamers++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A failed request ends the session; observe counts it.
			_, _ = replayHTTP(ctx, ts.Client(), ts.URL, create, steps, solver, func(op string, ms float64, err error) {
				tr.mu.Lock()
				defer tr.mu.Unlock()
				switch {
				case err != nil:
					tr.errors++
				case op == "create":
					tr.create = append(tr.create, ms)
				case op == "solve":
					tr.solve = append(tr.solve, ms)
				case op == "append":
					tr.appends = append(tr.appends, ms)
				}
			})
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	st := srv.Stats()
	rows := make([]Row, len(solvers))
	for i, tr := range tracks {
		rows[i] = Row{
			Trace: traceServe, Solver: solvers[i], Scale: spec.Name, Seed: spec.Seed, Parallelism: par,
			Steps: ld.batches, RecordedOnly: ld.recordedOnly,
			Sessions: tr.sessions, Streamers: tr.streamers, Variants: ld.variants,
			Solves: len(tr.solve), Appends: len(tr.appends), Errors: tr.errors,
			CacheHits: st.CacheHits, CacheMisses: st.CacheMisses, CacheHitRatio: srv.CacheHitRatio(), Forks: st.Forks,
			P50CreateMillis: quantile(tr.create, 0.5), P99CreateMillis: quantile(tr.create, 0.99),
			P50SolveMillis: quantile(tr.solve, 0.5), P99SolveMillis: quantile(tr.solve, 0.99),
			P50AppendMillis: quantile(tr.appends, 0.5), P99AppendMillis: quantile(tr.appends, 0.99),
		}
	}
	return rows, nil
}

// uploadBody is the create request that uploads the trace's initial
// state as a scenario.
func uploadBody(tr *trace) (map[string]any, error) {
	partial := *tr.sc
	partial.J = tr.initial
	raw, err := ibench.MarshalScenario(&partial)
	if err != nil {
		return nil, err
	}
	return map[string]any{"scenario": json.RawMessage(raw)}, nil
}

// solveReply is the part of a solve response the replay keeps.
type solveReply struct {
	Tgds      []string `json:"tgds"`
	Objective struct {
		Total float64 `json:"total"`
	} `json:"objective"`
}

// replayHTTP replays one session through the session API: create with
// the given body, solve, then apply each step and warm-solve, and
// finally delete the session. observe receives every request's
// client-side latency or failure; the replay stops at the first
// failure. It returns every solve's reply, the initial solve first.
func replayHTTP(ctx context.Context, client *http.Client, base string, create any, steps []ibench.ChurnStep, solver string, observe func(op string, ms float64, err error)) ([]solveReply, error) {
	call := func(op, path string, body, out any) error {
		ms, err := post(ctx, client, base+path, body, out)
		observe(op, ms, err)
		return err
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := call("create", "/sessions", create, &created); err != nil {
		return nil, err
	}
	defer func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodDelete, base+"/sessions/"+created.ID, nil)
		if resp, err := client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	session := "/sessions/" + created.ID
	solve := map[string]any{"solver": solver}
	replies := make([]solveReply, 1, len(steps)+1)
	if err := call("solve", session+"/solve", solve, &replies[0]); err != nil {
		return nil, err
	}
	solve["warm"] = true
	for _, st := range steps {
		if len(st.AddCandidates) > 0 {
			return replies, fmt.Errorf("bench: the session API cannot add candidates")
		}
		if len(st.Append) > 0 {
			if err := call("append", session+"/append", map[string]any{"tuples": wire(st.Append)}, nil); err != nil {
				return replies, err
			}
		}
		if len(st.Remove) > 0 {
			if err := call("remove", session+"/remove", map[string]any{"tuples": wire(st.Remove)}, nil); err != nil {
				return replies, err
			}
		}
		var r solveReply
		if err := call("solve", session+"/solve", solve, &r); err != nil {
			return replies, err
		}
		replies = append(replies, r)
	}
	return replies, nil
}

type wireTuple struct {
	Rel  string   `json:"rel"`
	Args []string `json:"args"`
}

// wire encodes tuples in the session API's wire format.
func wire(ts []data.Tuple) []wireTuple {
	out := make([]wireTuple, len(ts))
	for k, t := range ts {
		args := make([]string, len(t.Args))
		for a, val := range t.Args {
			args[a] = ibench.EncodeValue(val)
		}
		out[k] = wireTuple{Rel: t.Rel, Args: args}
	}
	return out
}

// post sends one JSON request and returns its client-observed wall
// time; non-2xx statuses are errors.
func post(ctx context.Context, client *http.Client, url string, body, out any) (float64, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	elapsed := millis(time.Since(start))
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return 0, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(payload))
	}
	if out != nil {
		if err := json.Unmarshal(payload, out); err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// quantile returns the exact q-quantile of xs (nearest-rank on the
// sorted samples), 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[int(q*float64(len(sorted)-1))]
}
