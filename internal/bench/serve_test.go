package bench

import (
	"context"
	"math"
	"net/http/httptest"
	"slices"
	"testing"

	"schemamap/internal/core"
	"schemamap/internal/serve"
)

// A small end-to-end run of the serve trace: concurrent named and
// streaming sessions against a real server, gated rows clean.
func TestRunServeSmoke(t *testing.T) {
	spec, err := SpecFor("S")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := serveLoad(context.Background(), spec, []string{"greedy"}, load{sessions: 24, variants: 2, batches: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.Trace != traceServe || r.Sessions != 24 || r.Errors != 0 || r.Streamers == 0 {
		t.Fatalf("row %+v", r)
	}
	// 24 sessions over 2 variants (split into named and uploaded
	// streams) must share prepares.
	if r.CacheHitRatio <= 0 {
		t.Fatalf("cache never hit: %+v", r)
	}
	if r.Solves != r.Sessions+r.Streamers*2 || r.Appends != r.Streamers*2 {
		t.Fatalf("solves %d, appends %d for %d sessions, %d streaming 2 steps", r.Solves, r.Appends, r.Sessions, r.Streamers)
	}
	if r.P50SolveMillis <= 0 || r.P99SolveMillis < r.P50SolveMillis {
		t.Fatalf("bad solve quantiles: %+v", r)
	}
	if err := Check(rows, 0); err != nil {
		t.Fatal(err)
	}
}

// The transport differential: the S and M stream traces replayed over
// HTTP against the session server select the same tgds at every step
// as the in-process replay, with objectives equal within 1e-9. The
// comparison is by tgd text, not bitwise: the uploaded scenario
// decodes in another tuple order, which permutes candidate indices and
// can move an objective by a few ulps.
func TestTransportDifferential(t *testing.T) {
	ctx := context.Background()
	const par = 2
	srv := serve.NewServer(serve.Config{Parallelism: par, IdleTimeout: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, scale := range []string{"S", "M"} {
		spec, err := SpecFor(scale)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := newTrace(traceStream, spec)
		if err != nil {
			t.Fatal(err)
		}
		body, err := uploadBody(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"greedy", "collective"} {
			solver := core.MustGet(name)
			opts := []core.SolveOption{core.WithParallelism(par)}
			p, first, err := tr.open(ctx, solver, opts, par)
			if err != nil {
				t.Fatal(err)
			}
			local := []solveReply{reply(p, first)}
			if _, _, _, err := tr.run(ctx, solver, opts, p, first, func(_ int, sel *core.Selection) {
				local = append(local, reply(p, sel))
			}); err != nil {
				t.Fatal(err)
			}
			served, err := replayHTTP(ctx, ts.Client(), ts.URL, body, tr.steps, name, func(string, float64, error) {})
			if err != nil {
				t.Fatal(err)
			}
			if len(served) != len(local) {
				t.Fatalf("%s/%s: %d served solves, %d local", scale, name, len(served), len(local))
			}
			for i := range local {
				slices.Sort(served[i].Tgds)
				if !slices.Equal(served[i].Tgds, local[i].Tgds) {
					t.Errorf("%s/%s step %d: served selection %v, local %v", scale, name, i, served[i].Tgds, local[i].Tgds)
				}
				if d := math.Abs(served[i].Objective.Total - local[i].Objective.Total); d > 1e-9 {
					t.Errorf("%s/%s step %d: served objective %v, local %v", scale, name, i, served[i].Objective.Total, local[i].Objective.Total)
				}
			}
		}
	}
}

// reply renders an in-process selection as the session API would: the
// chosen tgds' text, sorted, and the objective.
func reply(p *core.Problem, sel *core.Selection) solveReply {
	var r solveReply
	for _, d := range p.SelectedMapping(sel.Chosen) {
		r.Tgds = append(r.Tgds, d.String())
	}
	slices.Sort(r.Tgds)
	r.Objective.Total = sel.Objective.Total()
	return r
}
