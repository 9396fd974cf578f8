// Package serve is the long-lived mapping-selection server in front of
// the library: HTTP+JSON session-lifecycle endpoints over the
// streaming API (PrepareStreaming / AppendTarget / WithWarmStart).
//
// A session binds a client to a mapping-selection Problem. Sessions
// created over the same scenario content share one prepared Problem —
// Prepare is the expensive phase, its sync.Once semantics make a
// prepared Problem safe to share across concurrent solves, and the
// share is keyed by a content hash so equal uploads dedupe. The first
// target mutation on a shared session forks a session-private Problem
// (copy-on-append), after which appends and removals are incremental
// delta-Prepares and re-solves warm-start from the session's last
// selection. The first source delta forks further into a detached
// problem (source instance cloned too), since shared sessions alias
// the cache's source. See docs/LIFECYCLE.md for the mutation
// contract the endpoints expose.
//
// The server measures itself: prepare/solve/append latency histograms,
// cache hit counters, live-session and in-flight gauges, per-solver
// objective counters — exported in Prometheus text format on
// GET /metrics and load-tested by the bench serve trace, whose p50/p99
// rows gate in CI like the in-process traces.
package serve

import (
	"container/list"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"schemamap/internal/core"
	"schemamap/internal/ibench"
	"schemamap/internal/metrics"
)

// ScenarioSource lazily produces a named scenario (e.g. a bench scale
// generated on first use).
type ScenarioSource func() (*ibench.Scenario, error)

// Config tunes a Server. The zero value is usable: defaults are
// applied by NewServer.
type Config struct {
	// MaxSessions caps live sessions; beyond it the least-recently-used
	// session is evicted (default 256).
	MaxSessions int
	// MaxProblems caps the prepared-problem cache (default 64).
	// Eviction only stops new sharing — sessions keep their reference.
	MaxProblems int
	// IdleTimeout evicts sessions unused for this long (default 15m;
	// < 0 disables, 0 means the default).
	IdleTimeout time.Duration
	// Workers bounds concurrent solves (default GOMAXPROCS); excess
	// solve requests queue on the pool.
	Workers int
	// Parallelism is the WithParallelism bound for prepare and solve
	// (0 = GOMAXPROCS); per-request parallelism may lower it.
	Parallelism int
	// DefaultSolver is used when a solve request names none
	// (default "greedy").
	DefaultSolver string
	// MaxBudget caps per-request soft budgets and is the hard solve
	// timeout fallback (default 30s).
	MaxBudget time.Duration
	// Scenarios is the named corpus POST /sessions can reference
	// instead of uploading scenario JSON.
	Scenarios map[string]ScenarioSource
	// Registry receives the server's metrics (default: a fresh one).
	Registry *metrics.Registry
	// Now is the clock (default time.Now; tests inject theirs).
	Now func() time.Time
}

// Server is one mapping-selection service instance. Create it with
// NewServer, expose Handler over HTTP, stop it with Drain + Close.
type Server struct {
	cfg Config
	reg *metrics.Registry

	slots chan struct{} // solve worker pool

	mu       sync.Mutex // guards sessions, sessLRU, cache, cacheLRU (plus session/cacheEntry LRU fields marked "guarded by Server.mu")
	sessions map[string]*session
	sessLRU  *list.List // *session, front = most recently used
	cache    map[string]*cacheEntry
	cacheLRU *list.List // *cacheEntry, front = most recently used

	// drainMu makes the draining flag and the in-flight count
	// consistent: requests check the flag and register under RLock,
	// BeginDrain flips it under Lock, so Drain's Wait observes every
	// admitted request.
	drainMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	closed chan struct{}
	m      serveMetrics
}

// cacheEntry is one prepared-problem cache slot. The once gates the
// single Prepare all sessions of this scenario share; shared problems
// are append-free by construction (appends fork), so p's target never
// changes after prepare.
type cacheEntry struct {
	key  string
	load func() (*ibench.Scenario, error)
	once sync.Once
	sc   *ibench.Scenario
	p    *core.Problem
	err  error
	elem *list.Element // guarded by Server.mu
}

// session is one client session. mu serialises appends (Lock) against
// solves and objective reads (RLock) on the session's problem —
// the Problem contract forbids AppendTarget concurrent with Solve.
type session struct {
	id  string
	key string

	// mu guards p, sc, shared, detached
	mu     sync.RWMutex
	p      *core.Problem
	sc     *ibench.Scenario
	shared bool // p is the cache's problem; target mutations must fork first
	// detached means p's source instance is private too (ForkDetached);
	// source deltas on a non-detached session must detach first, since a
	// plain Fork still aliases the shared source.
	detached bool

	lastMu sync.Mutex // guards last, lastF, solved
	last   *core.Selection
	lastF  float64
	solved bool

	created  time.Time
	lastUsed time.Time     // guarded by Server.mu
	elem     *list.Element // guarded by Server.mu

	solves, appends, appended   atomic.Int64
	removes, removed, srcDeltas atomic.Int64
}

type serveMetrics struct {
	sessionsCreated *metrics.Counter
	sessionsDeleted *metrics.Counter
	evictedIdle     *metrics.Counter
	evictedLRU      *metrics.Counter
	sessionsLive    *metrics.Gauge
	forks           *metrics.Counter
	cacheHits       *metrics.Counter
	cacheMisses     *metrics.Counter
	prepareSeconds  *metrics.Histogram
	mutateAppend    *metrics.Histogram // serve_mutate_seconds{op="append"}
	mutateRemove    *metrics.Histogram // serve_mutate_seconds{op="remove"}
	mutateSource    *metrics.Histogram // serve_mutate_seconds{op="source_delta"}
	appendedTuples  *metrics.Counter
	removes         *metrics.Counter
	removedTuples   *metrics.Counter
	sourceDeltas    *metrics.Counter
	solveErrors     *metrics.Counter
	requests        *metrics.Counter
	rejected        *metrics.Counter
	inflightGauge   *metrics.Gauge
	drainingGauge   *metrics.Gauge
}

// mutateHelp is the help text of the serve_mutate_seconds family.
const mutateHelp = "Session mutation latency per operation (target appends and removes, source deltas)."

// NewServer builds a server and starts its idle-session reaper.
func NewServer(cfg Config) *Server {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 256
	}
	if cfg.MaxProblems <= 0 {
		cfg.MaxProblems = 64
	}
	switch {
	case cfg.IdleTimeout == 0:
		cfg.IdleTimeout = 15 * time.Minute
	case cfg.IdleTimeout < 0:
		cfg.IdleTimeout = 0
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.DefaultSolver == "" {
		cfg.DefaultSolver = "greedy"
	}
	if cfg.MaxBudget <= 0 {
		cfg.MaxBudget = 30 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Registry,
		slots:    make(chan struct{}, cfg.Workers),
		sessions: make(map[string]*session),
		sessLRU:  list.New(),
		cache:    make(map[string]*cacheEntry),
		cacheLRU: list.New(),
		closed:   make(chan struct{}),
	}
	r := s.reg
	s.m = serveMetrics{
		sessionsCreated: r.Counter("serve_sessions_created_total", "Sessions created."),
		sessionsDeleted: r.Counter("serve_sessions_deleted_total", "Sessions deleted by clients."),
		evictedIdle:     r.CounterWith("serve_sessions_evicted_total", "Sessions evicted by the server.", "reason", "idle"),
		evictedLRU:      r.CounterWith("serve_sessions_evicted_total", "Sessions evicted by the server.", "reason", "lru"),
		sessionsLive:    r.Gauge("serve_sessions_live", "Live sessions."),
		forks:           r.Counter("serve_session_forks_total", "Shared sessions forked on first append."),
		cacheHits:       r.Counter("serve_prepare_cache_hits_total", "Session creates that reused a prepared problem."),
		cacheMisses:     r.Counter("serve_prepare_cache_misses_total", "Session creates that prepared a new problem."),
		prepareSeconds:  r.Histogram("serve_prepare_seconds", "Prepare latency (cache misses and forks).", nil),
		mutateAppend:    r.HistogramWith("serve_mutate_seconds", mutateHelp, "op", "append", nil),
		mutateRemove:    r.HistogramWith("serve_mutate_seconds", mutateHelp, "op", "remove", nil),
		mutateSource:    r.HistogramWith("serve_mutate_seconds", mutateHelp, "op", "source_delta", nil),
		appendedTuples:  r.Counter("serve_appended_tuples_total", "Target tuples appended."),
		removes:         r.Counter("serve_removes_total", "Remove requests applied."),
		removedTuples:   r.Counter("serve_removed_tuples_total", "Target tuples removed."),
		sourceDeltas:    r.Counter("serve_source_deltas_total", "Source-delta requests applied."),
		solveErrors:     r.Counter("serve_solve_errors_total", "Solve requests that failed."),
		requests:        r.Counter("serve_http_requests_total", "API requests admitted."),
		rejected:        r.Counter("serve_http_rejected_total", "API requests rejected while draining."),
		inflightGauge:   r.Gauge("serve_inflight_requests", "API requests in flight."),
		drainingGauge:   r.Gauge("serve_draining", "1 while the server is draining."),
	}
	if cfg.IdleTimeout > 0 {
		go s.reapLoop()
	}
	return s
}

// Stats is a point-in-time snapshot of the server counters bench's
// load generator reads in-process.
type Stats struct {
	SessionsCreated float64
	SessionsLive    float64
	CacheHits       float64
	CacheMisses     float64
	Forks           float64
	SolveErrors     float64
	AppendedTuples  float64
	RemovedTuples   float64
	SourceDeltas    float64
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		SessionsCreated: s.m.sessionsCreated.Value(),
		SessionsLive:    s.m.sessionsLive.Value(),
		CacheHits:       s.m.cacheHits.Value(),
		CacheMisses:     s.m.cacheMisses.Value(),
		Forks:           s.m.forks.Value(),
		SolveErrors:     s.m.solveErrors.Value(),
		AppendedTuples:  s.m.appendedTuples.Value(),
		RemovedTuples:   s.m.removedTuples.Value(),
		SourceDeltas:    s.m.sourceDeltas.Value(),
	}
}

// CacheHitRatio returns hits / (hits+misses), 0 before any create.
func (s *Server) CacheHitRatio() float64 {
	st := s.Stats()
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		return st.CacheHits / total
	}
	return 0
}

// BeginDrain flips the server into draining mode: new API requests are
// rejected with 503 (health reports draining too) while admitted ones
// run to completion. Idempotent.
func (s *Server) BeginDrain() {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	s.m.drainingGauge.Set(1)
}

// Drain begins draining and blocks until every in-flight request has
// finished or the deadline elapses.
func (s *Server) Drain(timeout time.Duration) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	if timeout <= 0 {
		<-done
		return nil
	}
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("serve: drain timed out after %v with requests still in flight", timeout)
	}
}

// Close stops the background reaper. Call after Drain.
func (s *Server) Close() {
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
}

// admit registers one API request; it reports false when the server is
// draining. Every admitted request must be released.
func (s *Server) admit() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		s.m.rejected.Inc()
		return false
	}
	s.inflight.Add(1)
	s.m.requests.Inc()
	s.m.inflightGauge.Add(1)
	return true
}

func (s *Server) release() {
	s.m.inflightGauge.Add(-1)
	s.inflight.Done()
}

// Draining reports whether BeginDrain has run.
func (s *Server) Draining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// scenarioKey hashes uploaded scenario content: the canonical
// re-marshal of the parsed scenario, so equal content dedupes
// regardless of JSON formatting, plus the session weights — sessions
// share a Problem only when their objectives agree.
func scenarioKey(sc *ibench.Scenario, w core.Weights) (string, error) {
	b, err := ibench.MarshalScenario(sc)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return fmt.Sprintf("sha256:%s/w=%g,%g,%g", hex.EncodeToString(h[:8]), w.Explain, w.Error, w.Size), nil
}

// getEntry returns the cache entry for key, counting a hit or miss and
// touching the cache LRU. The entry's problem is prepared lazily via
// ensure, outside the server lock.
func (s *Server) getEntry(key string, load func() (*ibench.Scenario, error)) *cacheEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.cache[key]; ok {
		s.m.cacheHits.Inc()
		s.cacheLRU.MoveToFront(e.elem)
		return e
	}
	s.m.cacheMisses.Inc()
	e := &cacheEntry{key: key}
	// Defer scenario loading and Prepare into the once so concurrent
	// creates of the same key do the work exactly once.
	e.load = load
	s.cache[key] = e
	e.elem = s.cacheLRU.PushFront(e)
	for len(s.cache) > s.cfg.MaxProblems {
		oldest := s.cacheLRU.Back()
		old := oldest.Value.(*cacheEntry)
		s.cacheLRU.Remove(oldest)
		delete(s.cache, old.key)
	}
	return e
}

// ensure runs the entry's single scenario load + Prepare.
func (e *cacheEntry) ensure(s *Server, weights core.Weights) (*core.Problem, *ibench.Scenario, error) {
	e.once.Do(func() {
		sc, err := e.load()
		if err != nil {
			e.err = err
			return
		}
		p := core.NewProblem(sc.I, sc.J, sc.Candidates)
		p.Weights = weights
		start := time.Now()
		p.PrepareN(s.cfg.Parallelism)
		s.m.prepareSeconds.Observe(time.Since(start).Seconds())
		e.sc, e.p = sc, p
	})
	if e.err != nil {
		// A failed load must not poison the key forever; drop it.
		s.mu.Lock()
		if cur, ok := s.cache[e.key]; ok && cur == e {
			s.cacheLRU.Remove(e.elem)
			delete(s.cache, e.key)
		}
		s.mu.Unlock()
		return nil, nil, e.err
	}
	return e.p, e.sc, nil
}

// createSession builds a session over a named or uploaded scenario.
func (s *Server) createSession(key string, load func() (*ibench.Scenario, error), weights core.Weights) (*session, bool, error) {
	entry := s.getEntry(key, load)
	p, sc, err := entry.ensure(s, weights)
	if err != nil {
		return nil, false, err
	}
	sess := &session{
		id:      newID(),
		key:     key,
		p:       p,
		sc:      sc,
		shared:  true,
		created: s.cfg.Now(),
	}
	s.mu.Lock()
	sess.lastUsed = s.cfg.Now()
	s.sessions[sess.id] = sess
	sess.elem = s.sessLRU.PushFront(sess)
	var evicted []*session
	for len(s.sessions) > s.cfg.MaxSessions {
		oldest := s.sessLRU.Back()
		old := oldest.Value.(*session)
		s.sessLRU.Remove(oldest)
		delete(s.sessions, old.id)
		evicted = append(evicted, old)
	}
	s.mu.Unlock()
	for range evicted {
		s.m.evictedLRU.Inc()
	}
	s.m.sessionsCreated.Inc()
	s.m.sessionsLive.Set(float64(s.liveSessions()))
	return sess, true, nil
}

// lookup finds a session and touches its LRU position.
func (s *Server) lookup(id string) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, false
	}
	sess.lastUsed = s.cfg.Now()
	s.sessLRU.MoveToFront(sess.elem)
	return sess, true
}

// drop removes a session (client delete or eviction).
func (s *Server) drop(id string) bool {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		s.sessLRU.Remove(sess.elem)
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if ok {
		s.m.sessionsLive.Set(float64(s.liveSessions()))
	}
	return ok
}

func (s *Server) liveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// fork gives a shared session its private problem before the first
// target mutation (copy-on-append). Callers hold sess.mu.
//
//lint:guarded-by-caller every caller holds sess.mu.Lock across the copy-on-append decision and the fork
func (s *Server) fork(sess *session) {
	forked := sess.p.Fork()
	start := time.Now()
	forked.PrepareStreaming(s.cfg.Parallelism)
	s.m.prepareSeconds.Observe(time.Since(start).Seconds())
	sess.p = forked
	sess.shared = false
	s.m.forks.Inc()
}

// forkDetached gives a session a fully private problem — source
// instance cloned as well — before its first source delta. A plain
// fork still aliases the shared source instance, which a source delta
// would mutate under every session of the scenario. Callers hold
// sess.mu.
//
//lint:guarded-by-caller every caller holds sess.mu.Lock across the detach decision and the fork
func (s *Server) forkDetached(sess *session) {
	forked := sess.p.ForkDetached()
	start := time.Now()
	forked.PrepareStreaming(s.cfg.Parallelism)
	s.m.prepareSeconds.Observe(time.Since(start).Seconds())
	sess.p = forked
	sess.shared = false
	sess.detached = true
	s.m.forks.Inc()
}

// reapLoop evicts idle sessions until Close.
func (s *Server) reapLoop() {
	interval := s.cfg.IdleTimeout / 4
	if interval < time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
			s.reapIdle(s.cfg.Now())
		}
	}
}

// reapIdle evicts every session idle at now.
func (s *Server) reapIdle(now time.Time) int {
	if s.cfg.IdleTimeout <= 0 {
		return 0
	}
	s.mu.Lock()
	var idle []*session
	for e := s.sessLRU.Back(); e != nil; {
		sess := e.Value.(*session)
		prev := e.Prev()
		if now.Sub(sess.lastUsed) < s.cfg.IdleTimeout {
			break // LRU order: everything nearer the front is fresher
		}
		s.sessLRU.Remove(e)
		delete(s.sessions, sess.id)
		idle = append(idle, sess)
		e = prev
	}
	s.mu.Unlock()
	for range idle {
		s.m.evictedIdle.Inc()
	}
	if len(idle) > 0 {
		s.m.sessionsLive.Set(float64(s.liveSessions()))
	}
	return len(idle)
}

// newID returns a 16-hex-digit random session id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: id entropy unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}
