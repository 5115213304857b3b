package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"morphing/internal/aggr"
	"morphing/internal/canon"
	"morphing/internal/core"
	"morphing/internal/engine"
	"morphing/internal/engines"
	"morphing/internal/graph"
	"morphing/internal/obs"
	"morphing/internal/pattern"
	"morphing/internal/report"
)

// Server metric names, published into the observer's registry so /vars
// and /metrics expose the serving layer next to the engine counters;
// DESIGN §11 names each one's consumer.
const (
	MetricQueries     = "server_queries_total"
	MetricRejects     = "server_admission_rejects_total"
	MetricCacheHits   = "server_cache_hits_total"
	MetricCacheMisses = "server_cache_misses_total"
	MetricCoalesced   = "server_coalesced_total"
	MetricPanics      = "server_query_panics_total"
	MetricInterrupted = "server_query_interrupted_total"
	// MetricDrainCanceled counts queries force-canceled at the drain
	// deadline.
	MetricDrainCanceled = "server_drain_canceled_total"
	// MetricErrors counts queries whose terminal outcome spent
	// availability error budget (any failure except bad_request).
	MetricErrors = "server_query_errors_total"

	// Per-phase latency histograms (nanoseconds): where admitted
	// queries' wall time went. Every query observes total; admit/queue/
	// mine are observed for the phases it actually reached.
	MetricPhaseAdmitNS = "server_phase_admit_ns"
	MetricPhaseQueueNS = "server_phase_queue_ns"
	MetricPhaseMineNS  = "server_phase_mine_ns"
	MetricPhaseTotalNS = "server_phase_total_ns"

	GaugeQueueDepth = "server_queue_depth"
	GaugeInFlight   = "server_inflight"
	// GaugeBudgetInUse is the sum of in-flight queries' estimated match
	// bytes (the quantity admission control meters against
	// Config.AdmissionBudget).
	GaugeBudgetInUse = "server_admission_bytes_inflight"
)

// rejectMetric names the per-code reject counters.
var rejectMetric = map[Code]string{
	CodeBadRequest:     "server_reject_bad_request_total",
	CodeOverBudget:     "server_reject_over_budget_total",
	CodeOverloaded:     "server_reject_overloaded_total",
	CodeQueueFull:      "server_reject_queue_full_total",
	CodeQuotaExhausted: "server_reject_quota_exhausted_total",
	CodeDraining:       "server_reject_draining_total",
	CodeDeadline:       "server_reject_deadline_total",
	CodeCanceled:       "server_reject_canceled_total",
	CodePanic:          "server_reject_panic_total",
	CodeInternal:       "server_reject_internal_total",
}

// Serving constants: the values every deployment runs with.
const (
	// defaultEngine mines requests that name no engine.
	defaultEngine = "peregrine"
	// defaultDeadline applies when a request carries none; maxDeadline
	// clamps what a request may ask for.
	defaultDeadline = 30 * time.Second
	maxDeadline     = 5 * time.Minute
	// retryAfter is the hint attached to retryable rejections.
	retryAfter = 250 * time.Millisecond
	// cacheEntries bounds the result cache.
	cacheEntries = 256
)

// Config tunes the server. The zero value is usable: Defaults fills
// every knob with a production-shaped default.
type Config struct {
	// Threads is the per-query engine worker count (0 = GOMAXPROCS).
	Threads int
	// MaxInFlight is the worker-pool size: at most this many queries
	// mine concurrently.
	MaxInFlight int
	// MaxQueue bounds the admitted-but-not-started queue; a full queue
	// rejects with queue_full (backpressure) rather than buffering
	// without bound.
	MaxQueue int
	// PerClientInFlight caps one client token's admitted queries
	// (queued + executing): the fairness quota. Combined with
	// MaxInFlight it bounds the worker share any tenant can hold.
	// 0 = unlimited.
	PerClientInFlight int
	// AdmissionBudget caps the combined cost-model match-volume estimate
	// (bytes) of all admitted queries; 0 = unlimited. A query whose
	// estimate alone exceeds the budget is rejected fatally
	// (over_budget); one that merely doesn't fit *now* is rejected
	// retryably (overloaded).
	AdmissionBudget uint64
	// DrainTimeout bounds graceful drain: queries still running that
	// long after drain starts are canceled (they return marked partial
	// results).
	DrainTimeout time.Duration
	// Obs is the observability sink (nil = obs.Default()).
	Obs *obs.Observer
	// Flight is the per-query flight-recorder policy (nil = default).
	// When the server runs a History sampler, anomaly dumps written
	// through this policy also embed the recent time series (the policy's
	// History field is filled in if unset).
	Flight *obs.FlightPolicy
	// SLOWindow is the rolling window /slo computes burn rates over
	// (0 = 5m).
	SLOWindow time.Duration
	// SampleInterval is the History sampler period backing /timeseries:
	// 0 means one second, negative disables sampling.
	SampleInterval time.Duration
}

// Defaults fills zero fields with production-shaped values.
func (c Config) Defaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.SLOWindow <= 0 {
		c.SLOWindow = 5 * time.Minute
	}
	return c
}

// state is a query's place in its life (DESIGN §13). What a task holds
// follows from it, so no exit can forget a release: the client's quota and
// the flight it leads from admitted on; admission budget, a queue or worker
// slot and an entry in the drain ledger from queued on. received and riding
// hold nothing.
type state uint8

const (
	stReceived state = iota // resolved and validated
	stRiding                // answered by an execution it does not own: a stored result (hit) or a flight (coalesced)
	stAdmitted              // pinned to (graph, epoch); estimating
	stQueued                // waiting for a worker
	stRunning               // mining
	stTerminal              // outcome set, everything returned, done closed
)

// edges[from] is the set of states a task may move to from there; step
// panics on anything else.
var edges = [stTerminal + 1]uint8{
	stReceived: 1<<stRiding | 1<<stAdmitted | 1<<stTerminal,
	stRiding:   1<<stAdmitted | 1<<stTerminal, // admitted: what it rode does not cover this spelling, so it leads
	stAdmitted: 1<<stQueued | 1<<stTerminal,
	stQueued:   1<<stRunning | 1<<stTerminal,
	stRunning:  1 << stTerminal,
}

// task is one query. Its goroutine (Submit) owns it up to the queued edge,
// a worker from there to the terminal edge; the queue send and the close of
// done are the hand-overs, so only the owner reads or writes these fields.
type task struct {
	req      *QueryRequest
	patterns []*pattern.Pattern
	codec    []string // patterns in codec form, formatted once
	app      string
	client   string

	state state
	t0    time.Time // received

	key       cacheKey
	cacheable bool
	src       *QueryResult // riding a stored result: the cache entry
	fl        *flight      // the flight it rides (riding) or leads (admitted on, when cacheable)

	// g and key.epoch are the pair the task was admitted under: estimate,
	// execution and the cache store all answer for it, whatever SetGraph
	// does meanwhile.
	g   graph.Adjacency
	est core.AdmissionEstimate

	ctx    context.Context
	cancel context.CancelFunc

	// events carries progress events to Submit's caller; sends never block
	// (two events per query, room for four), so a departed client cannot
	// wedge a worker.
	events chan StreamEvent
	// done is closed exactly once, by the terminal edge, after result/qerr
	// are set.
	done   chan struct{}
	result *QueryResult
	qerr   *QueryError

	// Stamped by the queued and running edges, scored by the terminal one.
	enqueuedAt time.Time
	startedAt  time.Time
}

// Server is the resident query service. Construct with New, serve
// Handler(), stop with Drain.
type Server struct {
	cfg Config
	o   *obs.Observer

	mu        sync.Mutex
	g         graph.Adjacency
	epoch     uint64
	draining  bool
	queue     chan *task
	queued    int
	executing int
	admitted  map[*task]struct{}
	clients   map[string]int
	budgetUse uint64
	cache     *resultCache

	workers sync.WaitGroup // worker goroutines
	// settled is closed, once, when a drain finds admitted empty: by drain
	// itself, or by the terminal edge that removes the last entry.
	settled chan struct{}

	slo  *sloTracker  // rolling-window objective scoring (/slo)
	hist *obs.History // time-series sampler (/timeseries); nil when disabled

	drainOnce sync.Once
	drainErr  error

	// testExec stands in front of real query execution in tests
	// (deterministic blocking/fault scenarios); returning neither a result
	// nor an error lets the real execution proceed. Never set in production.
	testExec func(t *task) (*QueryResult, *QueryError)
}

// New builds a server over g and starts its worker pool.
func New(g graph.Adjacency, cfg Config) (*Server, error) {
	cfg = cfg.Defaults()
	s := &Server{
		cfg:      cfg,
		o:        obs.Or(cfg.Obs),
		g:        g,
		epoch:    1,
		queue:    make(chan *task, cfg.MaxQueue),
		admitted: make(map[*task]struct{}),
		settled:  make(chan struct{}),
		clients:  make(map[string]int),
		cache:    newResultCache(),
		slo:      newSLOTracker(cfg.SLOWindow, sloLatencyObjective),
	}
	if cfg.SampleInterval >= 0 {
		s.hist = obs.NewHistory(s.o.Metrics, obs.HistoryConfig{
			Interval: cfg.SampleInterval, // 0 → History's 1s default
			Counters: []string{
				MetricQueries, MetricRejects, MetricErrors,
				MetricCacheHits, MetricCacheMisses, MetricCoalesced,
				MetricPanics, MetricInterrupted,
				engine.MetricMatches, engine.MetricSetOps,
				core.MetricRuns,
				core.MetricDecodeRows, core.MetricDecodeBlocks, core.MetricDecodeElems,
				core.MetricProbeHits, core.MetricProbeMisses,
			},
			Gauges: []string{
				GaugeQueueDepth, GaugeInFlight, GaugeBudgetInUse,
				core.GaugeMmapResident, core.GaugeMmapMapped,
			},
			Histograms: []string{
				MetricPhaseAdmitNS, MetricPhaseQueueNS,
				MetricPhaseMineNS, MetricPhaseTotalNS,
				engine.MetricMineDurationNS,
			},
		})
		s.hist.Start()
		// Anomaly dumps get the recent time series for free.
		if cfg.Flight != nil && cfg.Flight.History == nil {
			cfg.Flight.History = s.hist
		}
	}
	s.workers.Add(cfg.MaxInFlight)
	for i := 0; i < cfg.MaxInFlight; i++ {
		go s.worker()
	}
	return s, nil
}

// History returns the server's time-series sampler (nil when sampling
// is disabled by a negative Config.SampleInterval).
func (s *Server) History() *obs.History { return s.hist }

// GraphEpoch returns the current graph epoch (part of every cache key).
func (s *Server) GraphEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// SetGraph swaps the served graph and bumps the epoch, invalidating
// every cached result (old epochs can never match again; entries age out
// of the LRU).
func (s *Server) SetGraph(g graph.Adjacency) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.g = g
	s.epoch++
}

// ResolvePattern parses a query pattern argument: a named pattern
// (optionally with a :v vertex-induced suffix) or codec text — the same
// grammar morphcli accepts.
func ResolvePattern(arg string) (*pattern.Pattern, error) {
	name, vertexInduced := strings.CutSuffix(arg, ":v")
	p, err := pattern.ByName(name)
	if err != nil {
		p, err = pattern.Parse(arg)
		if err != nil {
			return nil, fmt.Errorf("%q is neither a named pattern nor codec text", arg)
		}
		return p, nil
	}
	if vertexInduced {
		p = p.AsVertexInduced()
	}
	return p, nil
}

// prepare validates and resolves t's request. Returned errors are
// bad_request.
func (s *Server) prepare(t *task) *QueryError {
	req := t.req
	if err := req.Validate(); err != nil {
		return errf(CodeBadRequest, "%v", err)
	}
	t.app = req.App
	if t.app == "" {
		t.app = "count"
	}
	engName := req.Engine
	if engName == "" {
		engName = defaultEngine
	}
	// Only the name is checked here: most requests hit, coalesce or are
	// rejected, and the engine is built where a task runs (see engine).
	if err := engines.Check(engName); err != nil {
		return errf(CodeBadRequest, "%v", err)
	}
	t.patterns = make([]*pattern.Pattern, len(req.Patterns))
	t.codec = make([]string, len(req.Patterns))
	for i, arg := range req.Patterns {
		p, err := ResolvePattern(arg)
		if err != nil {
			return errf(CodeBadRequest, "pattern %d: %v", i, err)
		}
		t.patterns[i], t.codec[i] = p, p.String()
	}
	t.cacheable = !req.NoCache && !req.Explain
	t.key = cacheKey{
		patterns: patternSetID(t.patterns),
		app:      t.app,
		engine:   strings.ToLower(engName),
		baseline: req.Baseline,
		explain:  req.Explain,
	}
	return nil
}

// step moves t along one edge of its lifecycle and is the only code that
// changes a task's state or the tables that account for it (queued,
// executing, clients, budgetUse, admitted, cache.flights). The caller asks
// for a state; the guards, evaluated under s.mu together with the edge's
// effects, may land the request in riding (a stored result or a flight
// answers it) or in terminal (a typed rejection) instead, and step returns
// where t now is. res/qerr are the outcome of a terminal request. The
// stream event of an edge is posted inside the critical section, so queued
// precedes started; the terminal edge returns whatever t's state says it
// holds, stores a cacheable success under the epoch t was admitted at,
// settles the flight t leads, scores the query once and closes done.
func (s *Server) step(t *task, to state, res *QueryResult, qerr *QueryError) state {
	from := t.state
	if edges[from]&(1<<to) == 0 {
		panic(fmt.Sprintf("server: illegal lifecycle edge %d → %d", from, to))
	}
	// received and riding hold nothing, so their terminal edge — every
	// hit's — takes no lock.
	if to != stTerminal || from >= stAdmitted {
		s.mu.Lock()
		switch to { // guards
		case stAdmitted:
			t.g, t.key.epoch = s.g, s.epoch
			// Someone else's execution may answer a cacheable task once; one
			// that comes back from riding leads, without lookup or coalescing.
			t.src, t.fl = nil, nil
			if t.cacheable && from == stReceived {
				t.src, t.fl = s.cache.source(t.key)
			}
			switch q := s.cfg.PerClientInFlight; {
			case s.draining:
				to, qerr = stTerminal, s.retryable(CodeDraining, "server is draining")
			case t.src != nil:
				to = stRiding
				s.o.Counter(MetricCacheHits).Inc()
			case t.fl != nil:
				to = stRiding
				s.o.Counter(MetricCoalesced).Inc()
			case q > 0 && s.clients[t.client] >= q:
				to, qerr = stTerminal, s.retryable(CodeQuotaExhausted, "client %q is at its in-flight quota (%d)", t.client, q)
			}
		case stQueued:
			switch budget := s.cfg.AdmissionBudget; {
			case s.draining:
				to, qerr = stTerminal, s.retryable(CodeDraining, "server is draining")
			case budget > 0 && s.budgetUse+t.est.MatchBytes > budget:
				to, qerr = stTerminal, s.retryable(CodeOverloaded,
					"estimated match volume %d bytes does not fit the admission budget (%d of %d in use)",
					t.est.MatchBytes, s.budgetUse, budget)
			case len(s.queue) == cap(s.queue):
				to, qerr = stTerminal, s.retryable(CodeQueueFull, "query queue is full (%d deep)", s.cfg.MaxQueue)
			}
		case stRunning:
			if err := t.ctx.Err(); err != nil { // never start mining a dead query
				to, qerr = stTerminal, classifyCtxErr(err, "while queued")
			}
		}
		t.state = to
		switch to { // effects
		case stAdmitted:
			s.clients[t.client]++
			if t.cacheable {
				t.fl = &flight{done: make(chan struct{})}
				s.cache.flights[t.key] = t.fl
			}
		case stQueued:
			s.budgetUse += t.est.MatchBytes
			s.queued++
			s.admitted[t] = struct{}{}
			t.enqueuedAt = time.Now()
			s.o.Counter(MetricQueries).Inc()
			t.notify(StreamEvent{Type: EventQueued, QueueDepth: s.queued, Position: s.queued})
			// The hand-over: from here a worker owns t. The send cannot
			// block, as only this edge sends, under s.mu, and the guard saw
			// room.
			s.queue <- t
		case stRunning:
			s.queued--
			s.executing++
			t.startedAt = time.Now()
			t.notify(StreamEvent{Type: EventStarted})
		case stTerminal:
			if from < stAdmitted {
				break
			}
			if s.clients[t.client]--; s.clients[t.client] <= 0 {
				delete(s.clients, t.client)
			}
			if res != nil && t.cacheable {
				s.cache.put(t.key, res)
				s.o.Counter(MetricCacheMisses).Inc()
			}
			if t.fl != nil {
				if s.cache.flights[t.key] == t.fl {
					delete(s.cache.flights, t.key)
				}
				t.fl.result, t.fl.err = res, qerr
				close(t.fl.done)
			}
			if from >= stQueued {
				s.budgetUse -= t.est.MatchBytes
				if delete(s.admitted, t); s.draining && len(s.admitted) == 0 {
					close(s.settled) // draining admits nothing: the ledger empties once
				}
				if from == stQueued {
					s.queued--
				} else {
					s.executing--
				}
			}
		}
		if from >= stQueued || to == stQueued {
			s.o.Gauge(GaugeQueueDepth).Set(float64(s.queued))
			s.o.Gauge(GaugeInFlight).Set(float64(s.executing))
			s.o.Gauge(GaugeBudgetInUse).Set(float64(s.budgetUse))
		}
		s.mu.Unlock()
	} else {
		t.state = to
	}
	if to != stTerminal {
		return to
	}
	if qerr != nil && (from == stReceived || from == stAdmitted) {
		s.reject(qerr) // refused before it was queued
	}
	t.result, t.qerr = res, qerr
	s.record(t)
	close(t.done)
	t.cancel()
	return to
}

// retryable builds a capacity rejection carrying the retry-after hint.
func (s *Server) retryable(code Code, format string, args ...any) *QueryError {
	return errf(code, format, args...).withRetryAfter(retryAfter)
}

// reject counts a typed rejection and returns it.
func (s *Server) reject(qe *QueryError) *QueryError {
	s.o.Counter(MetricRejects).Inc()
	s.o.Counter(rejectMetric[qe.Code]).Inc()
	return qe
}

// estimate is the cost-model admission check, run outside the lock between
// the admitted and queued edges: transformation only.
func (s *Server) estimate(t *task) *QueryError {
	budget := s.cfg.AdmissionBudget
	if budget == 0 {
		return nil
	}
	r := &core.Runner{Engine: s.engine(t), DisableMorphing: t.req.Baseline, Obs: s.o}
	est, err := r.EstimateAdmission(t.ctx, t.g, t.patterns, aggFor(t.app))
	if engine.Interrupted(err) {
		return errf(CodeDeadline, "deadline expired during admission: %v", err)
	} else if err != nil {
		return errf(CodeBadRequest, "query rejected at transform: %v", err)
	}
	if t.est = est; est.MatchBytes > budget {
		return errf(CodeOverBudget,
			"estimated match volume %d bytes exceeds the admission budget %d: this query can never be admitted here",
			est.MatchBytes, budget)
	}
	return nil
}

// engine builds t's engine, for the tasks that get as far as needing one.
func (s *Server) engine(t *task) engine.Engine {
	eng, _ := engines.New(t.key.engine, s.cfg.Threads, nil) // prepare checked the name
	return eng
}

func aggFor(app string) aggr.Aggregation {
	if app == "mni" {
		return aggr.MNI{}
	}
	return aggr.Count{}
}

// notify sends a progress event without ever blocking: a slow or
// departed client drops events rather than wedging the worker.
func (t *task) notify(ev StreamEvent) {
	select {
	case t.events <- ev:
	default:
	}
}

// worker executes queued tasks until the queue is closed and drained.
func (s *Server) worker() {
	defer s.workers.Done()
	for t := range s.queue {
		if s.step(t, stRunning, nil, nil) == stRunning {
			res, qerr := s.execute(t)
			s.step(t, stTerminal, res, qerr)
		}
	}
}

// classifyCtxErr turns a context error into a typed QueryError; during
// names the phase the query was in (e.g. "while queued") so error
// documents and logs say where the deadline actually landed.
func classifyCtxErr(err error, during string) *QueryError {
	if errors.Is(err, context.DeadlineExceeded) {
		return errf(CodeDeadline, "deadline expired %s", during)
	}
	return errf(CodeCanceled, "canceled %s", during)
}

// execute runs one admitted query through core.Runner. Any panic that
// escapes the engines' own per-worker containment (conversion, selection,
// aggregation code) is contained here, so a query failure of any shape
// leaves the worker pool intact.
func (s *Server) execute(t *task) (res *QueryResult, qerr *QueryError) {
	defer func() {
		if r := recover(); r != nil {
			s.o.Counter(MetricPanics).Inc()
			qerr = errf(CodePanic, "query panicked outside engine containment: %v", r)
		}
	}()
	if s.testExec != nil {
		if res, qerr = s.testExec(t); res != nil || qerr != nil {
			return res, qerr
		}
	}

	r := &core.Runner{
		Engine:          s.engine(t),
		DisableMorphing: t.req.Baseline,
		Explain:         t.req.Explain,
		Label:           "serve/" + t.app,
		Obs:             s.o,
		Flight:          s.cfg.Flight,
	}
	res = &QueryResult{Cache: "miss", Patterns: t.codec}
	var st *core.RunStats
	var err error
	switch t.app {
	case "mni":
		var tables []*aggr.Table
		tables, st, err = r.MNITablesCtx(t.ctx, t.g, t.patterns)
		if err == nil {
			for _, tbl := range tables {
				res.Supports = append(res.Supports, tbl.Support())
			}
		}
	default:
		res.Counts, st, err = r.CountsCtx(t.ctx, t.g, t.patterns)
	}
	if err != nil {
		return nil, s.classifyRunErr(err, st)
	}
	res.Report, res.RunID = report.FromRunStats(st), st.RunID
	return res, nil
}

// classifyRunErr maps a runner error to the typed taxonomy, attaching
// the phase, the marked partial counts and the full interrupted-run
// report when the runner produced them (the same partial contract the
// CLI prints).
func (s *Server) classifyRunErr(err error, st *core.RunStats) *QueryError {
	var qe *QueryError
	var pe *engine.PanicError
	switch {
	case errors.Is(err, engine.ErrDeadlineExceeded):
		s.o.Counter(MetricInterrupted).Inc()
		qe = errf(CodeDeadline, "%v", err)
	case errors.Is(err, engine.ErrCanceled):
		s.o.Counter(MetricInterrupted).Inc()
		qe = errf(CodeCanceled, "%v", err)
	case errors.As(err, &pe):
		s.o.Counter(MetricPanics).Inc()
		qe = errf(CodePanic, "%v", err)
	default:
		qe = errf(CodeInternal, "%v", err)
	}
	if st != nil {
		qe.Phase = st.Phase
		rep := report.FromRunStats(st)
		qe.Partial = rep.Partial
		qe.Report = rep
	}
	return qe
}

// align builds t's reply from a stored execution result: the per-pattern
// answers in this request's pattern order (cache keys are
// order-invariant), the run that mined them and — only when the request
// asked — its report. Returns false when the stored result cannot cover
// the request (forcing a miss).
func (t *task) align(cached *QueryResult, cache string) (*QueryResult, bool) {
	byID := map[uint64][]int{}
	for i, s := range cached.Patterns {
		p, err := pattern.Parse(s)
		if err != nil {
			return nil, false
		}
		id := canon.ID(p)
		byID[id] = append(byID[id], i)
	}
	out := &QueryResult{Patterns: t.codec, Cache: cache, RunID: cached.RunID}
	if t.req.Report {
		out.Report = cached.Report
	}
	for _, p := range t.patterns {
		id := canon.ID(p)
		idxs := byID[id]
		if len(idxs) == 0 {
			return nil, false
		}
		i := idxs[0]
		byID[id] = idxs[1:]
		if cached.Counts != nil {
			if i >= len(cached.Counts) {
				return nil, false
			}
			out.Counts = append(out.Counts, cached.Counts[i])
		}
		if cached.Supports != nil {
			if i >= len(cached.Supports) {
				return nil, false
			}
			out.Supports = append(out.Supports, cached.Supports[i])
		}
	}
	return out, true
}

// Submit runs one request through its whole lifecycle and blocks until
// its terminal outcome. It is the transport-free core of the HTTP handler
// (and what in-process embedders call). events, when non-nil, receives the
// progress notifications of a query that was queued — on this goroutine,
// in order, none after Submit has returned. The result carries its run
// report only when req.Report is set.
func (s *Server) Submit(ctx context.Context, req *QueryRequest, client string, events func(StreamEvent)) (*QueryResult, *QueryError) {
	if client == "" {
		client = "anonymous"
	}
	t := &task{req: req, client: client, t0: time.Now(), events: make(chan StreamEvent, 4), done: make(chan struct{})}
	t.ctx, t.cancel = context.WithTimeout(ctx, clampDeadline(time.Duration(req.DeadlineMS)*time.Millisecond))
	if qerr := s.prepare(t); qerr != nil {
		s.step(t, stTerminal, nil, qerr)
		return nil, qerr
	}
	st := s.step(t, stAdmitted, nil, nil)
	if st == stRiding {
		src, how, qerr := t.src, "hit", (*QueryError)(nil)
		if t.fl != nil {
			// A passenger's own deadline still applies to the wait.
			how = "coalesced"
			select {
			case <-t.fl.done:
				if src = t.fl.result; t.fl.err != nil {
					cp := *t.fl.err
					qerr = &cp
				}
			case <-t.ctx.Done():
				qerr = classifyCtxErr(t.ctx.Err(), "waiting on coalesced execution")
			}
		}
		if qerr != nil {
			s.step(t, stTerminal, nil, qerr)
			return nil, qerr
		}
		if reply, ok := t.align(src, how); ok {
			s.step(t, stTerminal, reply, nil)
			return reply, nil
		}
		// What it rode does not cover this spelling of the set: it leads an
		// execution of its own, whose result replaces the entry.
		st = s.step(t, stAdmitted, nil, nil)
	}
	if st == stAdmitted {
		if qerr := s.estimate(t); qerr != nil {
			st = s.step(t, stTerminal, nil, qerr)
		} else {
			st = s.step(t, stQueued, nil, nil)
		}
	}
	if events == nil {
		events = func(StreamEvent) {}
	}
	for st == stQueued {
		select {
		case ev := <-t.events:
			events(ev)
		case <-t.done:
			st = stTerminal
		}
	}
	for len(t.events) > 0 { // posted before the terminal edge: still owed, in order
		events(<-t.events)
	}
	if t.qerr != nil {
		return nil, t.qerr
	}
	// The stored result keeps its report (the cache and any passengers share
	// it); the reply carries it only on request.
	reply, ok := t.align(t.result, "miss")
	if !ok {
		return nil, errf(CodeInternal, "execution result does not cover the query set")
	}
	return reply, nil
}

// record scores t's terminal outcome for the SLO tracker and the per-phase
// latency histograms, from the timestamps its edges stamped. Every query
// observes the total phase; admit and queue only when it was queued, mine
// only when a worker started it. Failures spend error budget unless the
// client caused them (bad_request).
func (s *Server) record(t *task) {
	end := time.Now()
	var d [sloPhases]time.Duration
	var valid [sloPhases]bool
	d[sloTotal], valid[sloTotal] = end.Sub(t.t0), true
	if !t.enqueuedAt.IsZero() {
		d[sloAdmit], valid[sloAdmit] = t.enqueuedAt.Sub(t.t0), true
		if !t.startedAt.IsZero() {
			d[sloQueue], valid[sloQueue] = t.startedAt.Sub(t.enqueuedAt), true
			d[sloMine], valid[sloMine] = end.Sub(t.startedAt), true
		} else {
			// Dead at pickup (deadline, client gone, drain cancel): the
			// whole wait was queue time.
			d[sloQueue], valid[sloQueue] = end.Sub(t.enqueuedAt), true
		}
	}
	names := [sloPhases]string{MetricPhaseAdmitNS, MetricPhaseQueueNS, MetricPhaseMineNS, MetricPhaseTotalNS}
	for i := 0; i < sloPhases; i++ {
		if valid[i] {
			s.o.Histogram(names[i]).Observe(uint64(d[i]))
		}
	}
	failed := t.qerr != nil && t.qerr.Code != CodeBadRequest
	if failed {
		s.o.Counter(MetricErrors).Inc()
	}
	s.slo.observe(end, t.client, d, valid, failed)
}

// ---- HTTP surface ----

// Handler returns the server's HTTP mux:
//
//	POST /query    run a mining query (ndjson stream)
//	GET  /healthz  liveness + drain state + queue depth
//	GET  /vars, /metrics, /debug/pprof/...  (observability, from obs)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /slo", s.handleSLO)
	mux.HandleFunc("GET /timeseries", s.handleTimeseries)
	om := obs.Handler(s.o.Metrics)
	mux.Handle("/vars", om)
	mux.Handle("/metrics", om)
	mux.Handle("/debug/pprof/", om)
	return mux
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	h := Health{
		Status:     "ok",
		QueueDepth: s.queued,
		InFlight:   s.executing,
		GraphEpoch: s.epoch,
		Vertices:   s.g.NumVertices(),
		Edges:      s.g.NumEdges(),
	}
	if s.draining {
		h.Status = "draining"
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(h)
}

// handleSLO serves the rolling-window objectives scorecard.
func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(s.slo.Status(time.Now()))
}

// handleTimeseries serves the History sampler's ring buffers. ?n=K
// limits each series to its newest K points.
func (s *Server) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if s.hist == nil {
		w.Write([]byte("{\"disabled\":true}\n"))
		return
	}
	limit := 0
	if v := r.URL.Query().Get("n"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			limit = n
		}
	}
	json.NewEncoder(w).Encode(s.hist.Snapshot(limit))
}

// handleQuery is the query endpoint. Pre-admission rejections carry real
// HTTP status codes (and a Retry-After header when retryable); every
// other reply is 200 with ndjson StreamEvent lines, the last of which is
// the result or typed error — streamed as they happen for a query that
// was queued, a single line for one answered without executing.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, s.reject(errf(CodeBadRequest, "bad JSON body: %v", err)))
		return
	}
	client := r.Header.Get(ClientTokenHeader)

	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	streamed := false
	emit := func(ev StreamEvent) { // on this goroutine only: Submit calls it inline
		if !streamed {
			streamed = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}

	// A terminal event that is the first thing written (a hit, a coalesced
	// passenger, a rejection) is one write; a reply that already streamed
	// queued/started gets one more flushed line.
	res, qerr := s.Submit(r.Context(), &req, client, emit)
	switch {
	case streamed && qerr != nil:
		emit(StreamEvent{Type: EventError, Error: qerr})
	case streamed:
		emit(StreamEvent{Type: EventResult, Result: res})
	case qerr != nil:
		writeError(w, qerr)
	default:
		writeOnce(w, http.StatusOK, "application/x-ndjson", StreamEvent{Type: EventResult, Result: res})
	}
}

// writeError writes a pre-stream rejection as a plain HTTP error.
func writeError(w http.ResponseWriter, qe *QueryError) {
	if qe.RetryAfter > 0 {
		secs := int(qe.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeOnce(w, qe.Code.HTTPStatus(), "application/json; charset=utf-8", StreamEvent{Type: EventError, Error: qe})
}

// writeOnce sends a reply that was never streamed: the event marshalled
// once and written with its Content-Length, so net/http neither flushes
// before the handler returns nor frames the body in chunks.
func writeOnce(w http.ResponseWriter, status int, ctype string, ev StreamEvent) {
	line, err := json.Marshal(ev)
	if err != nil { // a non-finite float in a report
		status = http.StatusInternalServerError
		line, _ = json.Marshal(StreamEvent{Type: EventError, Error: errf(CodeInternal, "encode reply: %v", err)})
	}
	w.Header().Set("Content-Type", ctype)
	w.Header().Set("Content-Length", strconv.Itoa(len(line)+1))
	w.WriteHeader(status)
	w.Write(append(line, '\n'))
}

// ---- drain ----

// Drain gracefully shuts the server down: stop admitting (new queries
// get the retryable draining rejection), let queued and in-flight
// queries finish, and — when the configured DrainTimeout passes first —
// cancel the stragglers, which then return their typed errors with
// marked partial counts to their clients. Drain returns when every
// admitted query has settled and all workers have exited; it is
// idempotent (later calls return the first drain's result).
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() { s.drainErr = s.drain(ctx) })
	return s.drainErr
}

func (s *Server) drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	close(s.queue) // admission holds s.mu before sending, so no racing send
	if len(s.admitted) == 0 {
		close(s.settled)
	}
	s.mu.Unlock()

	timeout := time.NewTimer(s.cfg.DrainTimeout)
	defer timeout.Stop()
	canceled := 0
	select {
	case <-s.settled:
	case <-timeout.C:
		// Drain deadline: cancel every admitted query (queued ones
		// included — their workers observe the dead context before
		// starting). Engines see the cancel at their next poll point,
		// inside a work block too, so settlement follows promptly.
		s.mu.Lock()
		for t := range s.admitted {
			t.cancel()
			canceled++
		}
		s.mu.Unlock()
		s.o.Counter(MetricDrainCanceled).Add(uint64(canceled))
		select {
		case <-s.settled:
		case <-ctx.Done():
			return fmt.Errorf("server: drain aborted with queries still in flight: %w", ctx.Err())
		}
	case <-ctx.Done():
		return fmt.Errorf("server: drain aborted: %w", ctx.Err())
	}
	s.workers.Wait()
	if s.hist != nil {
		s.hist.SampleNow() // capture the final counter state in the series
		s.hist.Stop()
	}
	return nil
}

// Draining reports whether drain has started.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}
