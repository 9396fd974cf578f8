package main

// served-churn: two clients stream churn plans into sessions of one
// in-process serve.Server over loopback HTTP.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"schemamap/internal/bench"
	"schemamap/internal/core"
	"schemamap/internal/data"
	"schemamap/internal/ibench"
	"schemamap/internal/serve"
)

const (
	servedClients = 2
	// churnPlans is the number of M scenarios, each dealt into one
	// churn plan, the clients cycle over. Warm-solve cost differs
	// between scenarios, so a run draws several.
	churnPlans = 16
	churnSteps = 24
	// sourceDeltaTuples source tuples are removed and re-added at each
	// step of sourceDeltaSteps (0-based plan step indices).
	sourceDeltaTuples = 3
	// serveBudget mirrors the budget serve applies to a solve request
	// that names none (serve.Config.MaxBudget's default).
	serveBudget = 30 * time.Second
)

var sourceDeltaSteps = map[int]bool{7: true, 15: true}

// step is one plan step in wire form plus the live target counts the
// plan implies.
type step struct {
	appendBody, removeBody []byte
	appendN, removeN       int
	liveAfterAppend        int
	liveAfterRemove        int
}

// churnPlan is one corpus scenario and the churn plan dealt from it.
type churnPlan struct {
	name    string // corpus name sessions are created by
	seed    int64
	sc      *ibench.Scenario
	plan    *ibench.ChurnStream
	steps   []step
	initial int
	// srcTuples are the source tuples each source delta removes and
	// re-adds; srcRemove and srcAdd the request bodies.
	srcTuples         []data.Tuple
	srcRemove, srcAdd []byte
	refs              []reference // per plan step, set by references
	shared            *core.Problem
}

type servedChurn struct {
	plans   []*churnPlan
	corrupt bool

	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	base   string
	client *http.Client

	// Traced phase: core.* spans of the library replays, totals of
	// the HTTP parts, and the first replay failure.
	lib       samples
	http      httpTotals
	replayErr error
}

func newServedChurn(cfg config) (workload, error) {
	spec, err := bench.SpecFor("M")
	if err != nil {
		return nil, err
	}
	w := &servedChurn{corrupt: cfg.corrupt}
	w.plans, err = parallel(churnPlans, func(k int) (*churnPlan, error) { return newChurnPlan(spec, cfg.seed, k) })
	if err != nil {
		return nil, err
	}
	if err := w.start(); err != nil {
		return nil, err
	}
	// Fill the prepared-problem cache: one untimed create and delete
	// per corpus scenario.
	for k, cp := range w.plans {
		var cr createResp
		o := w.call(0, "create", k, -1, http.MethodPost, "/sessions", createBody(cp.name), http.StatusCreated, &cr)
		if o.Err == "" {
			o = w.call(0, "delete", k, -1, http.MethodDelete, "/sessions/"+cr.ID, nil, http.StatusNoContent, nil)
		}
		if o.Err != "" {
			w.close()
			return nil, fmt.Errorf("warm-up %s of %s: %s", o.Kind, cp.name, o.Err)
		}
	}
	// One untimed warm-up episode per client.
	for _, o := range w.run(stopper{units: 1}, false) {
		if o.Err != "" {
			w.close()
			return nil, fmt.Errorf("warm-up %s: %s", o.Kind, o.Err)
		}
	}
	return w, nil
}

// newChurnPlan generates plan k of a run: an M scenario, its 24-step
// churn plan, the pre-encoded request bodies and the source tuples of
// the source deltas.
func newChurnPlan(spec bench.Spec, seed int64, k int) (*churnPlan, error) {
	spec.Seed = deriveSeed(seed, "served-churn", 3*k)
	sc, err := ibench.Generate(spec.Config())
	if err != nil {
		return nil, fmt.Errorf("generate scenario %d: %w", k, err)
	}
	plan, err := ibench.SplitChurn(sc, ibench.ChurnConfig{Steps: churnSteps, Seed: deriveSeed(seed, "served-churn", 3*k+1)})
	if err != nil {
		return nil, fmt.Errorf("split churn plan %d: %w", k, err)
	}
	cp := &churnPlan{name: fmt.Sprintf("churn-M-%d", k), seed: spec.Seed, sc: sc, plan: plan, initial: plan.Initial.Len()}
	live := cp.initial
	for _, st := range plan.Steps {
		var s step
		if s.appendN = len(st.Append); s.appendN > 0 {
			s.appendBody = mustJSON(map[string]any{"tuples": wireTuples(st.Append)})
		}
		live += s.appendN
		s.liveAfterAppend = live
		if s.removeN = len(st.Remove); s.removeN > 0 {
			s.removeBody = mustJSON(map[string]any{"tuples": wireTuples(st.Remove)})
		}
		live -= s.removeN
		s.liveAfterRemove = live
		cp.steps = append(cp.steps, s)
	}
	all := sc.I.All()
	rng := rand.New(rand.NewSource(deriveSeed(seed, "served-churn", 3*k+2)))
	for _, i := range rng.Perm(len(all))[:sourceDeltaTuples] {
		cp.srcTuples = append(cp.srcTuples, all[i])
	}
	cp.srcRemove = mustJSON(map[string]any{"remove": wireTuples(cp.srcTuples)})
	cp.srcAdd = mustJSON(map[string]any{"add": wireTuples(cp.srcTuples)})
	return cp, nil
}

// start boots the server on a loopback port. Candidate additions of
// the plans are left out: serve has no route for them, so each corpus
// scenario carries its plan's time-zero candidates.
func (w *servedChurn) start() error {
	corpus := make(map[string]serve.ScenarioSource, len(w.plans))
	for _, cp := range w.plans {
		sc := *cp.sc
		sc.J = cp.plan.Initial
		sc.Candidates = cp.plan.Candidates
		corpus[cp.name] = func() (*ibench.Scenario, error) { return &sc, nil }
	}
	w.srv = serve.NewServer(serve.Config{
		Workers:       2,
		Parallelism:   1,
		IdleTimeout:   -1, // clients delete their own sessions
		DefaultSolver: "collective",
		Scenarios:     corpus,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.srv.Close()
		return fmt.Errorf("listen: %w", err)
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: servedClients}}
	return nil
}

func (w *servedChurn) close() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx) // bounded by ctx; the serve goroutine is awaited below
	<-w.served
	w.client.CloseIdleConnections()
	w.srv.Close()
	w.hs = nil
}

func (w *servedChurn) run(st stopper, traced bool) []op {
	if traced {
		return w.runTraced(st)
	}
	return w.clients(st, st.more, 0)
}

// clients runs the clients concurrently until each has finished the
// episodes more allows. Client c takes plans c, c+2, c+4, … from
// plan 2·round on.
func (w *servedChurn) clients(st stopper, more func(ep int) bool, round int) []op {
	perClient := make([][]op, servedClients)
	var wg sync.WaitGroup
	for c := 0; c < servedClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ep := 0; more(ep); ep++ {
				k := (c + servedClients*(round+ep)) % len(w.plans)
				perClient[c] = w.episode(c, k, st, perClient[c])
			}
		}(c)
	}
	wg.Wait()
	var ops []op
	for _, o := range perClient {
		ops = append(ops, o...)
	}
	return ops
}

// runTraced alternates rounds of one HTTP episode per client with a
// library replay of the same two plans, so the serve spans and the
// core spans their self time is measured against are taken close
// together in time.
func (w *servedChurn) runTraced(st stopper) []op {
	w.lib = samples{}
	w.http = httpTotals{}
	w.replayErr = nil
	var ops []op
	for round := 0; st.more(round); round++ {
		before := w.srv.Stats()
		var memBefore, memAfter runtime.MemStats
		runtime.ReadMemStats(&memBefore)
		ops = append(ops, w.clients(st, func(ep int) bool { return ep == 0 }, round)...)
		runtime.ReadMemStats(&memAfter)
		after := w.srv.Stats()
		w.http.add(before, after, &memBefore, &memAfter)

		for c := 0; c < servedClients; c++ {
			cp := w.plans[(c+servedClients*round)%len(w.plans)]
			_, events, err := cp.replay(true)
			if err != nil {
				w.replayErr = fmt.Errorf("library replay of %s: %w", cp.name, err)
				return ops
			}
			for _, e := range events {
				allocs := e.layer == "core.append" || e.layer == "core.warm_solve"
				w.lib.record(e.layer, e.span, allocs)
			}
		}
	}
	return ops
}

// httpTotals sums the server counters and the process allocation
// counters over the HTTP parts of the traced rounds.
type httpTotals struct {
	episodes                     int
	hits, misses, forks          float64
	mallocs, allocBytes, pauseNs uint64
}

func (h *httpTotals) add(before, after serve.Stats, memBefore, memAfter *runtime.MemStats) {
	h.episodes += servedClients
	h.hits += after.CacheHits - before.CacheHits
	h.misses += after.CacheMisses - before.CacheMisses
	h.forks += after.Forks - before.Forks
	h.mallocs += memAfter.Mallocs - memBefore.Mallocs
	h.allocBytes += memAfter.TotalAlloc - memBefore.TotalAlloc
	h.pauseNs += memAfter.PauseTotalNs - memBefore.PauseTotalNs
}

// Response bodies, reduced to what the checks read.
type (
	createResp struct {
		ID      string `json:"id"`
		JTuples int    `json:"jTuples"`
	}
	writeResp struct {
		Added         int `json:"added"`
		Removed       int `json:"removed"`
		JTuples       int `json:"jTuples"`
		ChangedTuples int `json:"changedTuples"`
	}
	solveResp struct {
		Selected   []int `json:"selected"`
		Iterations int   `json:"iterations"`
		Truncated  bool  `json:"truncated"`
		Warm       bool  `json:"warm"`
		Objective  struct {
			Total float64 `json:"total"`
		} `json:"objective"`
	}
)

var solveBody = mustJSON(map[string]any{"solver": "collective", "parallelism": 1, "warm": true})

func createBody(name string) []byte { return mustJSON(map[string]string{"name": name}) }

// episode runs one session through plan k: create, every step's
// append, remove and (at sourceDeltaSteps) source delta followed by a
// warm solve, then delete. It stops early when st expires, deleting
// the session untimed.
func (w *servedChurn) episode(c, k int, st stopper, ops []op) []op {
	cp := w.plans[k]
	var cr createResp
	o := w.call(c, "create", k, -1, http.MethodPost, "/sessions", createBody(cp.name), http.StatusCreated, &cr)
	o.Tuples = cr.JTuples
	if o.Err == "" && cr.JTuples != cp.initial {
		o.Err = fmt.Sprintf("created session has %d live tuples, plan has %d", cr.JTuples, cp.initial)
	}
	ops = append(ops, o)
	if o.Err != "" {
		return ops
	}
	path := "/sessions/" + cr.ID
	live := cp.initial
	write := func(kind string, s int, body []byte, route string, wantN, wantLive int) bool {
		if st.expired() {
			return false
		}
		var wr writeResp
		o := w.call(c, kind, k, s, http.MethodPost, path+route, body, http.StatusOK, &wr)
		o.mutateMs = o.ms
		o.Tuples = wr.JTuples
		o.Changed = wr.ChangedTuples
		if o.Err == "" {
			n := wr.Added
			if kind == "remove" {
				n = wr.Removed
			}
			switch {
			case kind != "source_delta" && n != wantN:
				o.Err = fmt.Sprintf("%s applied %d tuples, plan has %d", kind, n, wantN)
			case wr.JTuples != wantLive:
				o.Err = fmt.Sprintf("%d live tuples after %s, plan has %d", wr.JTuples, kind, wantLive)
			}
		}
		ops = append(ops, o)
		live = wantLive
		return true
	}
	completed := func() bool {
		for s, sp := range cp.steps {
			if sp.appendN > 0 && !write("append", s, sp.appendBody, "/append", sp.appendN, sp.liveAfterAppend) {
				return false
			}
			if sp.removeN > 0 && !write("remove", s, sp.removeBody, "/remove", sp.removeN, sp.liveAfterRemove) {
				return false
			}
			if sourceDeltaSteps[s] {
				if !write("source_delta", s, cp.srcRemove, "/source-delta", sourceDeltaTuples, live) ||
					!write("source_delta", s, cp.srcAdd, "/source-delta", sourceDeltaTuples, live) {
					return false
				}
			}
			if st.expired() {
				return false
			}
			var sr solveResp
			o := w.call(c, "solve", k, s, http.MethodPost, path+"/solve", solveBody, http.StatusOK, &sr)
			o.solveMs = o.ms
			o.Tuples = live
			o.Objective = sr.Objective.Total
			o.Selected = sr.Selected
			o.Iters = sr.Iterations
			o.Truncated = sr.Truncated
			o.Warm = sr.Warm
			ops = append(ops, o)
		}
		return true
	}()
	if !completed {
		// The deadline passed mid-episode: clean up, unmeasured.
		_ = w.call(c, "delete", k, -1, http.MethodDelete, path, nil, http.StatusNoContent, nil)
		return ops
	}
	o = w.call(c, "delete", k, -1, http.MethodDelete, path, nil, http.StatusNoContent, nil)
	o.Tuples = live
	return append(ops, o)
}

// call sends one request and times it up to the decoded response. A
// status other than want makes the op failed.
func (w *servedChurn) call(c int, kind string, k, s int, method, path string, body []byte, want int, out any) op {
	o := op{Kind: kind, Client: c, Input: k, Step: s}
	start := time.Now()
	err := func() error {
		req, err := http.NewRequest(method, w.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := w.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != want {
			return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		}
		if out == nil {
			return nil
		}
		return json.Unmarshal(raw, out)
	}()
	o.ms = millis(time.Since(start))
	if err != nil {
		o.Err = err.Error()
	}
	return o
}

// replayEvent is one library call of a replayed episode.
type replayEvent struct {
	layer string
	span  span
}

// sharedProblem returns the problem the server shares across the
// sessions of plan cp, prepared once.
func (cp *churnPlan) sharedProblem() *core.Problem {
	if cp.shared == nil {
		cp.shared = core.NewProblem(cp.sc.I, cp.plan.Initial, cp.plan.Candidates)
		cp.shared.PrepareN(1)
	}
	return cp.shared
}

// replay runs one episode of the plan on library problems the way the
// server does: the shared problem forked on the first write, detached
// on the first source delta, a warm collective solve per step. It
// returns the per-step solve outputs and the timed calls.
func (cp *churnPlan) replay(mem bool) ([]reference, []replayEvent, error) {
	shared := cp.sharedProblem()
	var events []replayEvent
	timed := func(layer string, f func() error) error {
		var err error
		sp := measure(mem, func() { err = f() })
		events = append(events, replayEvent{layer, sp})
		return err
	}
	var p *core.Problem
	fork := func() {
		if p == nil {
			_ = timed("core.fork", func() error {
				p = shared.Fork()
				p.PrepareStreaming(1)
				return nil
			})
		}
	}
	detached := false
	var prev *core.Selection
	refs := make([]reference, len(cp.plan.Steps))
	for s, st := range cp.plan.Steps {
		if len(st.Append) > 0 {
			fork()
			if err := timed("core.append", func() error { _, err := p.AppendTarget(st.Append); return err }); err != nil {
				return nil, nil, fmt.Errorf("step %d append: %w", s, err)
			}
		}
		if len(st.Remove) > 0 {
			fork()
			if err := timed("core.remove", func() error { _, err := p.RemoveTarget(st.Remove); return err }); err != nil {
				return nil, nil, fmt.Errorf("step %d remove: %w", s, err)
			}
		}
		if sourceDeltaSteps[s] {
			if !detached {
				fork()
				_ = timed("core.fork_detached", func() error {
					p = p.ForkDetached()
					p.PrepareStreaming(1)
					return nil
				})
				detached = true
			}
			for _, d := range []core.SourceDelta{{Remove: cp.srcTuples}, {Add: cp.srcTuples}} {
				if err := timed("core.source_delta", func() error { _, err := p.ApplySourceDelta(d); return err }); err != nil {
					return nil, nil, fmt.Errorf("step %d source delta: %w", s, err)
				}
			}
		}
		if p == nil {
			return nil, nil, errors.New("plan step without a write")
		}
		opts := []core.SolveOption{core.WithParallelism(1), core.WithBudget(serveBudget)}
		if prev != nil {
			opts = append(opts, core.WithWarmStart(prev))
		}
		var sel *core.Selection
		if err := timed("core.warm_solve", func() error {
			var err error
			sel, err = core.CollectiveSolver{}.Solve(context.Background(), p, opts...)
			return err
		}); err != nil {
			return nil, nil, fmt.Errorf("step %d solve: %w", s, err)
		}
		prev = sel
		refs[s] = reference{objective: sel.Objective.Total(), selected: sel.Indices()}
	}
	return refs, events, nil
}

func (w *servedChurn) references() error {
	_, err := parallel(len(w.plans), func(k int) (struct{}, error) {
		cp := w.plans[k]
		refs, _, err := cp.replay(false)
		if err != nil {
			return struct{}{}, fmt.Errorf("%s: %w", cp.name, err)
		}
		if w.corrupt {
			for i := range refs {
				refs[i].objective = math.Nextafter(refs[i].objective, math.Inf(1))
			}
		}
		cp.refs = refs
		return struct{}{}, nil
	})
	return err
}

func (w *servedChurn) check(o *op) error {
	if o.Kind != "solve" {
		return nil
	}
	if o.Warm != (o.Step > 0) {
		return fmt.Errorf("warm=%v at step %d", o.Warm, o.Step)
	}
	return checkSolve(o, w.plans[o.Input].refs[o.Step])
}

// routes are the serve routes a served-churn episode calls, with the
// library call each one's self time is measured against ("" for routes
// that do no core work on this workload: create hits the prepared
// cache, delete drops a session).
var routes = []struct{ kind, core string }{
	{"create", ""},
	{"append", "core.append_ms"},
	{"remove", "core.remove_ms"},
	{"source_delta", "core.source_delta_ms"},
	{"solve", "core.warm_solve_ms"},
	{"delete", ""},
}

// layers derives the serve.* metrics from the traced HTTP ops and the
// core.* metrics from the library replays between them.
func (w *servedChurn) layers(traced []op) (map[string]float64, []string) {
	if w.replayErr != nil {
		return map[string]float64{}, []string{w.replayErr.Error()}
	}
	values := w.lib.medians()
	byKind := samples{}
	var changed, warmIters []float64
	for _, o := range traced {
		if o.Err != "" {
			continue
		}
		byKind.add(o.Kind, o.ms)
		switch {
		case o.Kind == "append" || o.Kind == "remove" || o.Kind == "source_delta":
			changed = append(changed, float64(o.Changed))
		case o.Kind == "solve" && o.Warm:
			warmIters = append(warmIters, float64(o.Iters))
		}
	}
	var bad []string
	for _, r := range routes {
		served := quantile(byKind[r.kind], 0.5)
		self := served
		if r.core != "" {
			self -= values[r.core]
		}
		values["serve."+r.kind+"_ms"] = served
		values["serve."+r.kind+"_self_ms"] = self
		if self < 0 {
			bad = append(bad, fmt.Sprintf("serve.%s_self_ms is negative (%.3f)", r.kind, self))
		}
	}
	h := w.http
	if h.hits+h.misses > 0 {
		values["serve.cache_hit_ratio"] = h.hits / (h.hits + h.misses)
	}
	values["serve.forks_per_episode"] = h.forks / float64(max(h.episodes, 1))
	values["cover.changed_tuples_per_write"] = mean(changed)
	values["psl.warm_admm_iters"] = quantile(warmIters, 0.5)
	n := float64(max(len(traced), 1))
	values["serve.op.allocs"] = float64(h.mallocs) / n
	values["serve.op.alloc_mb"] = float64(h.allocBytes) / (1 << 20) / n
	values["gc.pause_ms"] = float64(h.pauseNs) / 1e6 / n
	return values, bad
}

func (w *servedChurn) describe() map[string]any {
	var seeds []int64
	var tuples, initial, cands, notAdded []int
	for _, cp := range w.plans {
		seeds = append(seeds, cp.seed)
		tuples = append(tuples, cp.sc.J.Len())
		initial = append(initial, cp.initial)
		cands = append(cands, len(cp.plan.Candidates))
		notAdded = append(notAdded, cp.plan.TotalCandidatesAdded())
	}
	return map[string]any{
		"clients":              servedClients,
		"parallelism":          1,
		"server_workers":       2,
		"solver":               "collective",
		"plan_steps":           churnSteps,
		"scenario_seed":        seeds,
		"target_tuples":        tuples,
		"initial_tuples":       initial,
		"candidates":           cands,
		"candidates_not_added": notAdded,
	}
}

func wireTuples(ts []data.Tuple) []map[string]any {
	out := make([]map[string]any, len(ts))
	for i, t := range ts {
		args := make([]string, len(t.Args))
		for a, v := range t.Args {
			args[a] = ibench.EncodeValue(v)
		}
		out[i] = map[string]any{"rel": t.Rel, "args": args}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal request: %v", err))
	}
	return b
}
