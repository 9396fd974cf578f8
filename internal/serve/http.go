package serve

// HTTP+JSON wiring of the session lifecycle:
//
//	POST   /sessions                    create (named or uploaded scenario)
//	GET    /sessions/{id}               session status
//	DELETE /sessions/{id}               delete
//	POST   /sessions/{id}/append        append target tuples (delta-Prepare)
//	POST   /sessions/{id}/remove        remove target tuples (tombstoning)
//	POST   /sessions/{id}/source-delta  mutate the source instance
//	POST   /sessions/{id}/solve         solve with any registered solver
//	GET    /metrics                     Prometheus text exposition
//	GET    /healthz                     200 ok / 503 draining
//
// The route set is exported via Routes so cmd/docscheck can audit the
// endpoint table in docs/FORMATS.md against what actually registers.
//
// While draining, every endpoint except /metrics answers 503 so load
// balancers stop routing here; admitted requests run to completion.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"schemamap/internal/core"
	"schemamap/internal/data"
	"schemamap/internal/ibench"
	"schemamap/internal/shard"
)

// Wire types.

type createRequest struct {
	// Name selects a scenario from the server's named corpus …
	Name string `json:"name,omitempty"`
	// … or Scenario uploads one in the scenariogen JSON format.
	Scenario json.RawMessage `json:"scenario,omitempty"`
	// Weights override the Eq. (9) weights (nil = 1,1,1).
	Weights *wireWeights `json:"weights,omitempty"`
}

type wireWeights struct {
	Explain float64 `json:"explain"`
	Error   float64 `json:"error"`
	Size    float64 `json:"size"`
}

type createResponse struct {
	ID            string  `json:"id"`
	ScenarioKey   string  `json:"scenarioKey"`
	SharedPrepare bool    `json:"sharedPrepare"`
	Candidates    int     `json:"candidates"`
	JTuples       int     `json:"jTuples"`
	CreateMillis  float64 `json:"createMillis"`
}

type wireTuple struct {
	Rel string `json:"rel"`
	// Args use the scenario value encoding: "c:<constant>" or
	// "n:<labelled null>".
	Args []string `json:"args"`
}

type appendRequest struct {
	Tuples []wireTuple `json:"tuples"`
}

type appendResponse struct {
	Added         int     `json:"added"`
	JTuples       int     `json:"jTuples"`
	Forked        bool    `json:"forked"`
	ChangedTuples int     `json:"changedTuples"`
	PairsChanged  int     `json:"pairsChanged"`
	AppendMillis  float64 `json:"appendMillis"`
}

// removeRequest has the append body's shape.
type removeRequest = appendRequest

type removeResponse struct {
	Removed       int     `json:"removed"`
	JTuples       int     `json:"jTuples"`
	Forked        bool    `json:"forked"`
	ChangedTuples int     `json:"changedTuples"`
	PairsChanged  int     `json:"pairsChanged"`
	RemoveMillis  float64 `json:"removeMillis"`
}

type sourceDeltaRequest struct {
	Add    []wireTuple `json:"add,omitempty"`
	Remove []wireTuple `json:"remove,omitempty"`
}

type sourceDeltaResponse struct {
	// Added and Removed count the source tuples actually inserted and
	// deleted (duplicates and misses in the request are ignored).
	Added             int     `json:"added"`
	Removed           int     `json:"removed"`
	SourceTuples      int     `json:"sourceTuples"`
	JTuples           int     `json:"jTuples"`
	Detached          bool    `json:"detached"`
	ChangedTuples     int     `json:"changedTuples"`
	PairsChanged      int     `json:"pairsChanged"`
	ErrorsChanged     int     `json:"errorsChanged"`
	SourceDeltaMillis float64 `json:"sourceDeltaMillis"`
}

type solveRequest struct {
	Solver        string `json:"solver,omitempty"`
	BudgetMillis  int64  `json:"budgetMillis,omitempty"`
	TimeoutMillis int64  `json:"timeoutMillis,omitempty"`
	Parallelism   int    `json:"parallelism,omitempty"`
	Seed          int64  `json:"seed,omitempty"`
	// Warm re-solves from the session's last selection.
	Warm bool `json:"warm,omitempty"`
	// Sharded routes the solve through connected-component sharding
	// (internal/shard): the named solver runs per evidence-graph
	// component on a worker pool instead of on the whole problem.
	// Ignored when the solver name is already a sharded-* variant.
	Sharded bool `json:"sharded,omitempty"`
}

type wireObjective struct {
	Total       float64 `json:"total"`
	Unexplained float64 `json:"unexplained"`
	Errors      float64 `json:"errors"`
	Size        float64 `json:"size"`
}

type solveResponse struct {
	Solver      string        `json:"solver"`
	Selected    []int         `json:"selected"`
	Count       int           `json:"count"`
	Candidates  int           `json:"candidates"`
	Tgds        []string      `json:"tgds"`
	Objective   wireObjective `json:"objective"`
	Iterations  int           `json:"iterations"`
	Truncated   bool          `json:"truncated"`
	Unconverged bool          `json:"unconverged"`
	Warm        bool          `json:"warm"`
	SolveMillis float64       `json:"solveMillis"`
}

type statusResponse struct {
	ID             string   `json:"id"`
	ScenarioKey    string   `json:"scenarioKey"`
	SharedPrepare  bool     `json:"sharedPrepare"`
	Candidates     int      `json:"candidates"`
	JTuples        int      `json:"jTuples"`
	Solves         int64    `json:"solves"`
	Appends        int64    `json:"appends"`
	AppendedTuples int64    `json:"appendedTuples"`
	Removes        int64    `json:"removes"`
	RemovedTuples  int64    `json:"removedTuples"`
	SourceDeltas   int64    `json:"sourceDeltas"`
	LastObjective  *float64 `json:"lastObjective,omitempty"`
	CreatedAt      string   `json:"createdAt"`
	LastUsedAt     string   `json:"lastUsedAt"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Route is one registered API route, as cmd/docscheck audits them
// against the endpoint table in docs/FORMATS.md.
type Route struct {
	Method string
	Path   string
}

// routeTable is the single source of truth for the server's routes:
// Handler registers exactly these, and Routes exposes them for the
// docs audit. raw routes bypass drain admission (health and metrics
// must answer while draining).
var routeTable = []struct {
	Route
	handle func(*Server, http.ResponseWriter, *http.Request)
	raw    bool
}{
	{Route{http.MethodGet, "/healthz"}, (*Server).handleHealth, true},
	{Route{http.MethodGet, "/metrics"}, (*Server).handleMetrics, true},
	{Route{http.MethodPost, "/sessions"}, (*Server).handleCreate, false},
	{Route{http.MethodGet, "/sessions/{id}"}, (*Server).handleStatus, false},
	{Route{http.MethodDelete, "/sessions/{id}"}, (*Server).handleDelete, false},
	{Route{http.MethodPost, "/sessions/{id}/append"}, (*Server).handleAppend, false},
	{Route{http.MethodPost, "/sessions/{id}/remove"}, (*Server).handleRemove, false},
	{Route{http.MethodPost, "/sessions/{id}/source-delta"}, (*Server).handleSourceDelta, false},
	{Route{http.MethodPost, "/sessions/{id}/solve"}, (*Server).handleSolve, false},
}

// Routes lists every route the Handler registers, in registration
// order.
func Routes() []Route {
	rs := make([]Route, len(routeTable))
	for i, rt := range routeTable {
		rs[i] = rt.Route
	}
	return rs
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routeTable {
		handle := rt.handle
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { handle(s, w, r) })
		if rt.raw {
			mux.Handle(rt.Method+" "+rt.Path, h)
		} else {
			mux.Handle(rt.Method+" "+rt.Path, s.api(h))
		}
	}
	return mux
}

// api wraps an endpoint with drain admission and in-flight accounting.
func (s *Server) api(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.admit() {
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is draining"})
			return
		}
		defer s.release()
		h(w, r)
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteText(w)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	weights := core.DefaultWeights()
	if req.Weights != nil {
		weights = core.Weights{Explain: req.Weights.Explain, Error: req.Weights.Error, Size: req.Weights.Size}
	}
	if err := weights.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var key string
	var load func() (*ibench.Scenario, error)
	switch {
	case req.Name != "" && len(req.Scenario) > 0:
		writeError(w, http.StatusBadRequest, fmt.Errorf("give either name or scenario, not both"))
		return
	case req.Name != "":
		src, ok := s.cfg.Scenarios[req.Name]
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown scenario %q", req.Name))
			return
		}
		key = fmt.Sprintf("name:%s/w=%g,%g,%g", req.Name, weights.Explain, weights.Error, weights.Size)
		load = src
	case len(req.Scenario) > 0:
		sc, err := ibench.UnmarshalScenario(req.Scenario)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		key, err = scenarioKey(sc, weights)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		load = func() (*ibench.Scenario, error) { return sc, nil }
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing scenario: give name or scenario"))
		return
	}
	start := time.Now()
	sess, _, err := s.createSession(key, load, weights)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	resp := func() createResponse {
		sess.mu.RLock()
		defer sess.mu.RUnlock()
		return createResponse{
			ID:            sess.id,
			ScenarioKey:   sess.key,
			SharedPrepare: sess.shared,
			Candidates:    sess.p.NumCandidates(),
			JTuples:       sess.p.NumLiveTuples(),
			CreateMillis:  float64(time.Since(start).Nanoseconds()) / 1e6,
		}
	}()
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such session"))
		return
	}
	s.mu.Lock()
	lastUsed := sess.lastUsed
	s.mu.Unlock()
	resp := func() statusResponse {
		sess.mu.RLock()
		defer sess.mu.RUnlock()
		return statusResponse{
			ID:             sess.id,
			ScenarioKey:    sess.key,
			SharedPrepare:  sess.shared,
			Candidates:     sess.p.NumCandidates(),
			JTuples:        sess.p.NumLiveTuples(),
			Solves:         sess.solves.Load(),
			Appends:        sess.appends.Load(),
			AppendedTuples: sess.appended.Load(),
			Removes:        sess.removes.Load(),
			RemovedTuples:  sess.removed.Load(),
			SourceDeltas:   sess.srcDeltas.Load(),
			CreatedAt:      sess.created.UTC().Format(time.RFC3339Nano),
			LastUsedAt:     lastUsed.UTC().Format(time.RFC3339Nano),
		}
	}()
	sess.lastMu.Lock()
	if sess.solved {
		f := sess.lastF
		resp.LastObjective = &f
	}
	sess.lastMu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.drop(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such session"))
		return
	}
	s.m.sessionsDeleted.Inc()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	s.mutateTuples(w, r, (*core.Problem).AppendTarget, func(sess *session, m targetMutation) any {
		added := m.delta.NewTuples - m.delta.OldTuples
		sess.appends.Add(1)
		sess.appended.Add(int64(added))
		s.m.mutateAppend.Observe(m.elapsed.Seconds())
		s.m.appendedTuples.Add(float64(added))
		return appendResponse{
			Added:         added,
			JTuples:       m.jTuples,
			Forked:        m.forked,
			ChangedTuples: len(m.delta.ChangedTuples),
			PairsChanged:  len(m.delta.PairsChanged),
			AppendMillis:  float64(m.elapsed.Nanoseconds()) / 1e6,
		}
	})
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	s.mutateTuples(w, r, (*core.Problem).RemoveTarget, func(sess *session, m targetMutation) any {
		removed := len(m.delta.RemovedTuples)
		sess.removes.Add(1)
		sess.removed.Add(int64(removed))
		s.m.removes.Inc()
		s.m.removedTuples.Add(float64(removed))
		s.m.mutateRemove.Observe(m.elapsed.Seconds())
		return removeResponse{
			Removed:       removed,
			JTuples:       m.jTuples,
			Forked:        m.forked,
			ChangedTuples: len(m.delta.ChangedTuples),
			PairsChanged:  len(m.delta.PairsChanged),
			RemoveMillis:  float64(m.elapsed.Nanoseconds()) / 1e6,
		}
	})
}

// targetMutation is the outcome of one target mutation: its delta,
// whether the session forked first, the live target size afterwards,
// and the wall time including the session-lock wait.
type targetMutation struct {
	delta   *core.TargetDelta
	forked  bool
	jTuples int
	elapsed time.Duration
}

// mutateTuples is the shared body of /append and /remove: session
// lookup (404), body decode and the empty-batch check (400), the
// mutation under the session lock, and the failure answer (see
// mutationFailed). On success respond books the operation's counters
// and returns the 200 response.
func (s *Server) mutateTuples(w http.ResponseWriter, r *http.Request, mutate func(*core.Problem, []data.Tuple) (*core.TargetDelta, error), respond func(*session, targetMutation) any) {
	sess, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such session"))
		return
	}
	var req appendRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Tuples) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty tuple batch"))
		return
	}
	tuples, err := decodeTuples(req.Tuples)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	var m targetMutation
	m.elapsed, m.forked, err = s.mutateSession(sess, false, func(p *core.Problem) (err error) {
		m.delta, err = mutate(p, tuples)
		m.jTuples = p.NumLiveTuples()
		return err
	})
	if err != nil {
		s.mutationFailed(w, sess, err)
		return
	}
	writeJSON(w, http.StatusOK, respond(sess, m))
}

func (s *Server) handleSourceDelta(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such session"))
		return
	}
	var req sourceDeltaRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Add) == 0 && len(req.Remove) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty source delta"))
		return
	}
	add, err := decodeTuples(req.Add)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rem, err := decodeTuples(req.Remove)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	var (
		delta                           *core.TargetDelta
		addKeys                         = make(map[string]bool)
		removedN, sourceTuples, jTuples int
	)
	elapsed, _, err := s.mutateSession(sess, true, func(p *core.Problem) (err error) {
		// Count the effective changes against the pre-state (core
		// applies adds before removes and skips duplicates and misses).
		for _, t := range add {
			if !p.I.Has(t) {
				addKeys[t.Key()] = true
			}
		}
		remSeen := make(map[string]bool)
		for _, t := range rem {
			k := t.Key()
			if remSeen[k] {
				continue
			}
			remSeen[k] = true
			if p.I.Has(t) || addKeys[k] {
				removedN++
			}
		}
		delta, err = p.ApplySourceDelta(core.SourceDelta{Add: add, Remove: rem})
		sourceTuples = p.I.Len()
		jTuples = p.NumLiveTuples()
		return err
	})
	if err != nil {
		s.mutationFailed(w, sess, err)
		return
	}
	sess.srcDeltas.Add(1)
	s.m.sourceDeltas.Inc()
	s.m.mutateSource.Observe(elapsed.Seconds())
	writeJSON(w, http.StatusOK, sourceDeltaResponse{
		Added:             len(addKeys),
		Removed:           removedN,
		SourceTuples:      sourceTuples,
		JTuples:           jTuples,
		Detached:          true,
		ChangedTuples:     len(delta.ChangedTuples),
		PairsChanged:      len(delta.PairsChanged),
		ErrorsChanged:     len(delta.ErrorsChanged),
		SourceDeltaMillis: float64(elapsed.Nanoseconds()) / 1e6,
	})
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such session"))
		return
	}
	req := solveRequest{Solver: s.cfg.DefaultSolver}
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Solver == "" {
		req.Solver = s.cfg.DefaultSolver
	}
	solver, err := core.Get(req.Solver)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Sharded && !strings.HasPrefix(req.Solver, "sharded-") {
		if solver, err = shard.Wrap(req.Solver); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}

	// The worker pool bounds solve concurrency across sessions; queue
	// on it, but give up when the client goes away.
	select {
	case s.slots <- struct{}{}:
		defer func() { <-s.slots }()
	case <-r.Context().Done():
		writeError(w, http.StatusRequestTimeout, r.Context().Err())
		return
	}

	budget := time.Duration(req.BudgetMillis) * time.Millisecond
	if budget <= 0 || budget > s.cfg.MaxBudget {
		budget = s.cfg.MaxBudget
	}
	opts := []core.SolveOption{
		core.WithParallelism(s.resolveParallelism(req.Parallelism)),
		core.WithBudget(budget),
	}
	if req.Seed != 0 {
		opts = append(opts, core.WithSeed(req.Seed))
	}
	warm := false
	if req.Warm {
		sess.lastMu.Lock()
		if sess.last != nil {
			opts = append(opts, core.WithWarmStart(sess.last))
			warm = true
		}
		sess.lastMu.Unlock()
	}
	ctx := r.Context()
	if req.TimeoutMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMillis)*time.Millisecond)
		defer cancel()
	}

	start := time.Now()
	sel, tgds, err := solveSession(ctx, sess, solver, opts)
	elapsed := time.Since(start)
	if err != nil {
		s.m.solveErrors.Inc()
		status := http.StatusInternalServerError
		if ctx.Err() != nil {
			status = http.StatusGatewayTimeout
		}
		writeError(w, status, err)
		return
	}
	sess.solves.Add(1)
	sess.lastMu.Lock()
	sess.last = sel
	sess.lastF = sel.Objective.Total()
	sess.solved = true
	sess.lastMu.Unlock()
	// Metrics and the response carry the effective solver name, so a
	// sharded request shows up as sharded-<solver>.
	name := solver.Name()
	s.reg.HistogramWith("serve_solve_seconds", "Solve latency per solver.", "solver", name, nil).
		Observe(elapsed.Seconds())
	s.reg.CounterWith("serve_solves_total", "Solves per solver.", "solver", name).Inc()
	s.reg.CounterWith("serve_solve_objective_sum", "Sum of solve objectives per solver (divide by serve_solves_total for the mean).", "solver", name).
		Add(sel.Objective.Total())

	writeJSON(w, http.StatusOK, solveResponse{
		Solver:     name,
		Selected:   sel.Indices(),
		Count:      sel.Count(),
		Candidates: len(sel.Chosen),
		Tgds:       tgds,
		Objective: wireObjective{
			Total:       sel.Objective.Total(),
			Unexplained: sel.Objective.Unexplained,
			Errors:      sel.Objective.Errors,
			Size:        sel.Objective.Size,
		},
		Iterations:  sel.Iterations,
		Truncated:   sel.Truncated,
		Unconverged: sel.Unconverged,
		Warm:        warm,
		SolveMillis: float64(elapsed.Nanoseconds()) / 1e6,
	})
}

// mutateSession runs one mutation of the session's problem under its
// write lock, the one routine every mutating endpoint goes through. It
// first forks when the problem is not the session's own to mutate: a
// source mutation (source) on a session without a private source
// instance gets a detached fork, since even a forked problem still
// aliases the cache's source; any other mutation on a session sharing
// the cache's problem gets a plain fork (copy-on-write: the shared
// problem must keep its target for the other sessions). A panic in fn
// becomes a *mutationPanic error. elapsed includes the session-lock
// wait and the fork.
func (s *Server) mutateSession(sess *session, source bool, fn func(*core.Problem) error) (elapsed time.Duration, forked bool, err error) {
	start := time.Now()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	defer recoverMutation(&err)
	if forked = (source && !sess.detached) || (!source && sess.shared); forked {
		s.fork(sess, source)
	}
	err = fn(sess.p)
	return time.Since(start), forked, err
}

// mutationPanic is a panic recovered from a session mutation. The
// problem may be half-mutated — J grown, its version not re-recorded —
// so every later request on it would fail CheckFresh.
type mutationPanic struct{ val any }

func (e *mutationPanic) Error() string {
	return fmt.Sprintf("mutation panicked: %v; the session was dropped", e.val)
}

// recoverMutation, deferred inside a session mutation, turns a panic
// into a *mutationPanic error in *err.
func recoverMutation(err *error) {
	if r := recover(); r != nil {
		*err = &mutationPanic{val: r}
	}
}

// mutationFailed answers a failed session mutation. After a panic the
// session is dropped and the answer is 500; any other error left the
// problem untouched (unknown tuple, stale evidence) and is a 409.
func (s *Server) mutationFailed(w http.ResponseWriter, sess *session, err error) {
	var mp *mutationPanic
	if errors.As(err, &mp) {
		s.drop(sess.id)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeError(w, http.StatusConflict, err)
}

// solveSession runs the solver on the session's problem under its read
// lock and renders the chosen tgds. A panic in the solve becomes an
// error, and the lock is released either way, so one failing solve
// leaves the session and the server usable.
func solveSession(ctx context.Context, sess *session, solver core.Solver, opts []core.SolveOption) (sel *core.Selection, tgds []string, err error) {
	sess.mu.RLock()
	defer sess.mu.RUnlock()
	defer func() {
		if r := recover(); r != nil {
			sel, tgds, err = nil, nil, fmt.Errorf("solver %s panicked: %v", solver.Name(), r)
		}
	}()
	sel, err = solver.Solve(ctx, sess.p, opts...)
	if err != nil {
		return nil, nil, err
	}
	tgds = []string{}
	for _, d := range sess.p.SelectedMapping(sel.Chosen) {
		tgds = append(tgds, d.String())
	}
	return sel, tgds, nil
}

// resolveParallelism caps a per-request parallelism by the server's.
func (s *Server) resolveParallelism(req int) int {
	if req <= 0 {
		return s.cfg.Parallelism
	}
	if s.cfg.Parallelism > 0 && req > s.cfg.Parallelism {
		return s.cfg.Parallelism
	}
	return req
}

// decodeTuples converts wire tuples to data tuples, validating the
// value encoding.
func decodeTuples(wts []wireTuple) ([]data.Tuple, error) {
	tuples := make([]data.Tuple, 0, len(wts))
	for _, wt := range wts {
		if wt.Rel == "" {
			return nil, fmt.Errorf("tuple without relation")
		}
		args := make([]data.Value, len(wt.Args))
		for i, a := range wt.Args {
			v, err := ibench.DecodeValue(a)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		tuples = append(tuples, data.Tuple{Rel: wt.Rel, Args: args})
	}
	return tuples, nil
}

// decodeBody decodes a JSON body, tolerating an empty one (all
// defaults) and rejecting trailing garbage.
func decodeBody(r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		if errors.Is(err, io.EOF) {
			return nil // empty body: all defaults
		}
		return fmt.Errorf("bad request body: %w", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err == nil {
		return fmt.Errorf("bad request body: trailing content")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
