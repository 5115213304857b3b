package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"morphing/internal/core"
	"morphing/internal/faultinject"
	"morphing/internal/graph"
	"morphing/internal/obs"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/report"
)

// chordRing builds the deterministic test graph: a cycle plus stride-2
// chords, dense in triangles and 4-cycles.
func chordRing(n int) *graph.Graph {
	var edges [][2]uint32
	for i := 0; i < n; i++ {
		edges = append(edges, [2]uint32{uint32(i), uint32((i + 1) % n)})
		edges = append(edges, [2]uint32{uint32(i), uint32((i + 2) % n)})
	}
	g, err := graph.FromEdges(n, edges, nil)
	if err != nil {
		panic(err)
	}
	return g
}

// waitForGoroutines polls until the goroutine count drops back to at
// most base (same hand-rolled goleak as internal/obs/leak_test.go: the
// count is noisy, so retry rather than compare once).
func waitForGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%s leaked goroutines: %d > baseline %d\n%s", what, n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// newTestServer builds a server over a fresh graph with an isolated
// metrics registry, and drains it at cleanup so worker goroutines never
// outlive the test.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = &obs.Observer{Metrics: obs.NewRegistry()}
	}
	s, err := New(chordRing(64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	return s
}

// counter reads a server metric.
func counter(s *Server, name string) uint64 { return s.o.Counter(name).Value() }

// locked runs f under the server's lock: the one way tests read or plant
// lifecycle state.
func locked(s *Server, f func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f()
}

// queueState snapshots (queued, executing).
func queueState(s *Server) (q, e int) {
	locked(s, func() { q, e = s.queued, s.executing })
	return q, e
}

// flights counts the registered single-flight executions.
func flights(s *Server) (n int) {
	locked(s, func() { n = len(s.cache.flights) })
	return n
}

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// fixedResult builds the result shape the real execute path produces,
// so cache alignment logic sees codec-parsable pattern strings.
func fixedResult(t *task) *QueryResult {
	res := &QueryResult{Cache: "miss"}
	for i, p := range t.patterns {
		res.Patterns = append(res.Patterns, p.String())
		res.Counts = append(res.Counts, uint64(100+i))
	}
	return res
}

// TestQueryEndToEndCountsMatchRunner runs real queries over the wire —
// httptest + Client + ndjson stream + core.Runner — and checks the
// answers against a direct local run.
func TestQueryEndToEndCountsMatchRunner(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		cfg := Config{MaxInFlight: 2, Obs: &obs.Observer{Metrics: obs.NewRegistry()}}
		s, err := New(chordRing(64), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
		}()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		g := chordRing(64)
		queries := []*pattern.Pattern{pattern.Triangle(), pattern.FourCycle().AsVertexInduced()}
		r := &core.Runner{Engine: peregrine.New(0)}
		want, _, err := r.CountsCtx(context.Background(), g, queries)
		if err != nil {
			t.Fatal(err)
		}

		var events []string
		c := &Client{Base: ts.URL, OnEvent: func(ev StreamEvent) { events = append(events, ev.Type) }}
		res, err := c.Query(context.Background(), QueryRequest{
			Patterns: []string{"triangle", "4-cycle:v"}, Report: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Counts) != 2 || res.Counts[0] != want[0] || res.Counts[1] != want[1] {
			t.Fatalf("served counts %v, local runner %v", res.Counts, want)
		}
		if res.Cache != "miss" {
			t.Errorf("first query cache disposition %q", res.Cache)
		}
		if res.Report == nil || res.Report.Phase != core.PhaseDone {
			t.Errorf("no completed run report attached: %+v", res.Report)
		}
		if len(events) == 0 {
			t.Error("no progress events observed on the stream")
		}

		// MNI app over the same wire.
		mni, err := c.Query(context.Background(), QueryRequest{Patterns: []string{"triangle"}, App: "mni"})
		if err != nil {
			t.Fatal(err)
		}
		if len(mni.Supports) != 1 || mni.Supports[0] <= 0 {
			t.Fatalf("MNI supports %v", mni.Supports)
		}

		// Health reflects the served graph.
		h, err := c.Health(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if h.Status != "ok" || h.Vertices != 64 {
			t.Errorf("health %+v", h)
		}
	}()
	waitForGoroutines(t, base, "server e2e")
}

func TestBadRequestRejections(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, req := range []QueryRequest{
		{},                                    // no patterns
		{Patterns: []string{"no-such-shape"}}, // unresolvable pattern
		{Patterns: []string{"triangle"}, App: "pagerank"},
		{Patterns: []string{"triangle"}, Engine: "spark"},
	} {
		_, qerr := s.Submit(context.Background(), &req, "", nil)
		if qerr == nil || qerr.Code != CodeBadRequest {
			t.Errorf("req %+v: got %v, want bad_request", req, qerr)
		}
		if qerr.Retryable {
			t.Errorf("req %+v: bad_request marked retryable", req)
		}
	}
}

// TestOverBudgetFatal: a query whose match-volume estimate alone exceeds
// the admission budget is rejected fatally — retrying can never help.
func TestOverBudgetFatal(t *testing.T) {
	s := newTestServer(t, Config{AdmissionBudget: 1})
	_, qerr := s.Submit(context.Background(), &QueryRequest{Patterns: []string{"triangle"}}, "", nil)
	if qerr == nil || qerr.Code != CodeOverBudget {
		t.Fatalf("got %v, want over_budget", qerr)
	}
	if qerr.Retryable {
		t.Error("over_budget must be fatal")
	}
	if got := counter(s, rejectMetric[CodeOverBudget]); got != 1 {
		t.Errorf("reject counter %d", got)
	}
}

// TestQueueFullBackpressure fills the one worker and the one queue slot,
// then checks the third query bounces with a retryable queue_full and a
// retry-after hint rather than buffering without bound.
func TestQueueFullBackpressure(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1, CacheSize: -1, RetryAfter: 123 * time.Millisecond})
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	s.testExec = func(t *task) (*QueryResult, *QueryError) {
		started <- struct{}{}
		<-block
		return fixedResult(t), nil
	}

	req := func() *QueryRequest { return &QueryRequest{Patterns: []string{"triangle"}} }
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			if _, qerr := s.Submit(context.Background(), req(), "", nil); qerr != nil {
				t.Errorf("blocked-then-released query failed: %v", qerr)
			}
		}()
		if i == 0 {
			<-started // the worker holds query A before B is submitted
		}
	}
	waitUntil(t, "queue to hold one task", func() bool { q, _ := queueState(s); return q == 1 })

	_, qerr := s.Submit(context.Background(), req(), "", nil)
	if qerr == nil || qerr.Code != CodeQueueFull {
		t.Fatalf("third query got %v, want queue_full", qerr)
	}
	if !qerr.Retryable || qerr.RetryAfter != 123*time.Millisecond {
		t.Errorf("queue_full must be retryable with the hint, got retryable=%v after=%v",
			qerr.Retryable, qerr.RetryAfter)
	}

	close(block)
	wg.Wait()
}

// TestPerClientQuota: one tenant at its quota is rejected retryably
// while another tenant still gets in (fairness isolation).
func TestPerClientQuota(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 2, PerClientInFlight: 1, CacheSize: -1})
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	s.testExec = func(t *task) (*QueryResult, *QueryError) {
		started <- struct{}{}
		<-block
		return fixedResult(t), nil
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, qerr := s.Submit(context.Background(), &QueryRequest{Patterns: []string{"triangle"}}, "alice", nil); qerr != nil {
			t.Errorf("alice's first query failed: %v", qerr)
		}
	}()
	<-started

	_, qerr := s.Submit(context.Background(), &QueryRequest{Patterns: []string{"4-cycle"}}, "alice", nil)
	if qerr == nil || qerr.Code != CodeQuotaExhausted || !qerr.Retryable {
		t.Fatalf("alice's second query got %v, want retryable quota_exhausted", qerr)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, qerr := s.Submit(context.Background(), &QueryRequest{Patterns: []string{"4-cycle"}}, "bob", nil); qerr != nil {
			t.Errorf("bob's query failed behind alice's quota: %v", qerr)
		}
	}()
	<-started

	close(block)
	wg.Wait()

	// Quota released on settle: alice can query again.
	if _, qerr := s.Submit(context.Background(), &QueryRequest{Patterns: []string{"triangle"}}, "alice", nil); qerr != nil {
		t.Fatalf("alice still quota-blocked after her query settled: %v", qerr)
	}
}

// TestCacheHitMissEpoch covers the result cache: first execution is a
// miss, an identical query is a hit (no re-execution), a permuted
// spelling of the same set is still a hit re-aligned to request order,
// and a graph swap (epoch bump) invalidates everything.
func TestCacheHitMissEpoch(t *testing.T) {
	s := newTestServer(t, Config{})
	var execs int
	s.testExec = func(t *task) (*QueryResult, *QueryError) {
		locked(s, func() { execs++ })
		return fixedResult(t), nil
	}
	submit := func(patterns ...string) *QueryResult {
		t.Helper()
		res, qerr := s.Submit(context.Background(), &QueryRequest{Patterns: patterns}, "", nil)
		if qerr != nil {
			t.Fatalf("submit %v: %v", patterns, qerr)
		}
		return res
	}

	r1 := submit("triangle", "4-cycle")
	if r1.Cache != "miss" || execs != 1 {
		t.Fatalf("first query: cache=%q execs=%d", r1.Cache, execs)
	}
	r2 := submit("triangle", "4-cycle")
	if r2.Cache != "hit" || execs != 1 {
		t.Fatalf("identical query: cache=%q execs=%d, want hit without re-execution", r2.Cache, execs)
	}
	if counter(s, MetricCacheHits) != 1 || counter(s, MetricCacheMisses) != 1 {
		t.Errorf("hit/miss counters %d/%d", counter(s, MetricCacheHits), counter(s, MetricCacheMisses))
	}

	// Permuted spelling of the same set: same key, answers re-aligned.
	r3 := submit("4-cycle", "triangle")
	if r3.Cache != "hit" || execs != 1 {
		t.Fatalf("permuted query: cache=%q execs=%d", r3.Cache, execs)
	}
	if r3.Counts[1] != r1.Counts[0] || r3.Counts[0] != r1.Counts[1] {
		t.Fatalf("permuted hit not re-aligned: %v vs %v", r3.Counts, r1.Counts)
	}

	// NoCache bypasses both lookup and store.
	res, qerr := s.Submit(context.Background(), &QueryRequest{Patterns: []string{"triangle", "4-cycle"}, NoCache: true}, "", nil)
	if qerr != nil || res.Cache != "miss" || execs != 2 {
		t.Fatalf("nocache query: res=%+v qerr=%v execs=%d", res, qerr, execs)
	}

	// Epoch bump: the cached answer is for the old graph.
	s.SetGraph(chordRing(64))
	r4 := submit("triangle", "4-cycle")
	if r4.Cache != "miss" || execs != 3 {
		t.Fatalf("post-swap query: cache=%q execs=%d, want a fresh miss", r4.Cache, execs)
	}
}

// TestCacheAlignmentFailureFallsThrough: a cached entry whose stored
// patterns cannot cover the incoming query set must be treated as a miss
// and re-executed. Regression test: this path once released s.mu on the
// cache hit and fell through into lock-held code, so the next branch
// double-unlocked the mutex — a fatal runtime error that took down the
// whole daemon.
func TestCacheAlignmentFailureFallsThrough(t *testing.T) {
	s := newTestServer(t, Config{})
	var execs int
	s.testExec = func(t *task) (*QueryResult, *QueryError) {
		locked(s, func() { execs++ })
		return fixedResult(t), nil
	}
	submit := func() *QueryResult {
		t.Helper()
		res, qerr := s.Submit(context.Background(), &QueryRequest{Patterns: []string{"triangle"}}, "", nil)
		if qerr != nil {
			t.Fatalf("submit: %v", qerr)
		}
		return res
	}

	if r := submit(); r.Cache != "miss" || execs != 1 {
		t.Fatalf("first query: cache=%q execs=%d", r.Cache, execs)
	}
	// Corrupt the cached entry so alignResult cannot map it onto the
	// query set.
	var cached int
	locked(s, func() {
		cached = s.cache.len()
		for _, el := range s.cache.entries {
			el.Value.(*cacheEntry).res = &QueryResult{Patterns: []string{"not a pattern"}}
		}
	})
	if cached != 1 {
		t.Fatalf("expected one cached entry, have %d", cached)
	}

	if r := submit(); r.Cache != "miss" || execs != 2 {
		t.Fatalf("unalignable entry: cache=%q execs=%d, want fall-through miss and re-execution", r.Cache, execs)
	}
	// The re-execution overwrote the bad entry: the next query is a
	// clean hit again.
	if r := submit(); r.Cache != "hit" || execs != 2 {
		t.Fatalf("repaired entry: cache=%q execs=%d", r.Cache, execs)
	}
}

// TestSingleFlight: N identical concurrent queries execute once; the
// leader reports miss, every passenger reports coalesced with the same
// answers, and passengers consume no queue slots.
func TestSingleFlight(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1})
	block := make(chan struct{})
	var execs int
	s.testExec = func(t *task) (*QueryResult, *QueryError) {
		locked(s, func() { execs++ })
		<-block
		return fixedResult(t), nil
	}

	const passengers = 8
	results := make(chan *QueryResult, passengers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, qerr := s.Submit(context.Background(), &QueryRequest{Patterns: []string{"triangle"}}, "lead", nil)
		if qerr != nil {
			t.Errorf("leader: %v", qerr)
			return
		}
		results <- res
	}()
	waitUntil(t, "the leader's flight to register", func() bool { return flights(s) == 1 })
	for i := 0; i < passengers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct client tokens: passengers must not burn quota or
			// queue slots (queue capacity is 1 and it is empty here).
			res, qerr := s.Submit(context.Background(), &QueryRequest{Patterns: []string{"triangle"}}, fmt.Sprint("c", i), nil)
			if qerr != nil {
				t.Errorf("passenger %d: %v", i, qerr)
				return
			}
			results <- res
		}(i)
	}
	// Every passenger must be parked on the flight before release (the
	// coalesced counter moves at attach time).
	waitUntil(t, "passengers to attach", func() bool {
		return counter(s, MetricCoalesced) == uint64(passengers)
	})
	if q, e := queueState(s); q != 0 || e != 1 {
		t.Fatalf("passengers consumed slots: queued=%d executing=%d", q, e)
	}
	close(block)
	wg.Wait()
	close(results)

	var miss, coalesced int
	for res := range results {
		switch res.Cache {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		default:
			t.Errorf("unexpected disposition %q", res.Cache)
		}
		if len(res.Counts) != 1 || res.Counts[0] != 100 {
			t.Errorf("wrong coalesced answer %v", res.Counts)
		}
	}
	if execs != 1 || miss != 1 || coalesced != passengers {
		t.Errorf("execs=%d miss=%d coalesced=%d, want 1/1/%d", execs, miss, coalesced, passengers)
	}
}

// TestDeadlineWhileQueued: a query whose deadline expires before a
// worker frees up gets the typed deadline error without ever mining.
func TestDeadlineWhileQueued(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 4, CacheSize: -1})
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	s.testExec = func(t *task) (*QueryResult, *QueryError) {
		started <- struct{}{}
		<-block
		return fixedResult(t), nil
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Submit(context.Background(), &QueryRequest{Patterns: []string{"triangle"}}, "", nil)
	}()
	<-started

	// The second query queues behind the blocked worker and its deadline
	// expires there; once the worker frees up it must refuse to mine the
	// dead query and return the typed deadline error.
	type outcome struct{ qerr *QueryError }
	ch := make(chan outcome, 1)
	go func() {
		_, qerr := s.Submit(context.Background(),
			&QueryRequest{Patterns: []string{"4-cycle"}, DeadlineMS: 30}, "", nil)
		ch <- outcome{qerr}
	}()
	waitUntil(t, "the deadlined query to queue", func() bool { q, _ := queueState(s); return q == 1 })
	time.Sleep(60 * time.Millisecond) // let its deadline lapse while queued
	close(block)

	o := <-ch
	if o.qerr == nil || o.qerr.Code != CodeDeadline {
		t.Fatalf("queued-past-deadline query got %v, want deadline", o.qerr)
	}
	if o.qerr.Retryable {
		t.Error("deadline must be fatal")
	}
	wg.Wait()
}

// TestDrainWithStragglers: drain stops admission (typed retryable
// rejection), waits, then cancels stragglers at the drain deadline; the
// stragglers' clients receive typed errors with marked partial counts,
// every task settles, and no goroutine outlives Drain.
func TestDrainWithStragglers(t *testing.T) {
	base := runtime.NumGoroutine()
	s := func() *Server {
		cfg := Config{MaxInFlight: 1, MaxQueue: 4, CacheSize: -1,
			DrainTimeout: 50 * time.Millisecond,
			Obs:          &obs.Observer{Metrics: obs.NewRegistry()}}
		s, err := New(chordRing(64), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}()

	started := make(chan struct{}, 1)
	s.testExec = func(tk *task) (*QueryResult, *QueryError) {
		started <- struct{}{}
		// A cooperative straggler: mines until its context dies, then
		// reports partial progress — the engine cancellation contract.
		<-tk.ctx.Done()
		qe := classifyCtxErr(tk.ctx.Err(), "while mining")
		qe.Phase = core.PhaseMine
		qe.Partial = []report.PartialReport{{Pattern: "straggler", Count: 41}}
		return nil, qe
	}

	type outcome struct {
		res  *QueryResult
		qerr *QueryError
	}
	outcomes := make(chan outcome, 2)
	for i, p := range []string{"triangle", "4-cycle"} {
		go func(p string) {
			res, qerr := s.Submit(context.Background(), &QueryRequest{Patterns: []string{p}}, "", nil)
			outcomes <- outcome{res, qerr}
		}(p)
		if i == 0 {
			<-started // the first query is mining before the second queues
		}
	}
	waitUntil(t, "one executing one queued", func() bool { q, e := queueState(s); return q == 1 && e == 1 })

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitUntil(t, "drain to start", s.Draining)

	// Admission is closed: new queries bounce retryably.
	_, qerr := s.Submit(context.Background(), &QueryRequest{Patterns: []string{"triangle"}}, "", nil)
	if qerr == nil || qerr.Code != CodeDraining || !qerr.Retryable {
		t.Fatalf("query during drain got %v, want retryable draining", qerr)
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	var canceled, withPartials int
	for i := 0; i < 2; i++ {
		o := <-outcomes
		if o.qerr == nil {
			t.Fatalf("straggler %d settled without the typed cancellation: %+v", i, o.res)
		}
		if o.qerr.Code == CodeCanceled || o.qerr.Code == CodeDeadline {
			canceled++
		}
		if len(o.qerr.Partial) > 0 {
			if o.qerr.Partial[0].Count != 41 {
				t.Errorf("partial count %d", o.qerr.Partial[0].Count)
			}
			withPartials++
		}
	}
	if canceled != 2 {
		t.Errorf("%d stragglers canceled with typed errors, want 2", canceled)
	}
	// The executing straggler reports partials; the queued one never
	// started, so it legitimately has none.
	if withPartials < 1 {
		t.Error("no straggler surfaced partial counts")
	}
	if got := counter(s, MetricDrainCanceled); got == 0 {
		t.Error("drain-canceled counter never moved")
	}

	// Idempotent: a second Drain returns the first result immediately.
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("second drain: %v", err)
	}
	waitForGoroutines(t, base, "drain")
}

// TestPanicIsolation arms the real fault injector, panics a real query
// mid-mining, and checks the failure is contained to that query: typed
// panic error out, worker pool intact, next query fine.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1, CacheSize: -1})

	disarm, err := faultinject.Arm(faultinject.Config{PanicAtMatch: 1, PanicMessage: "chaos probe"})
	if err != nil {
		t.Fatal(err)
	}
	_, qerr := s.Submit(context.Background(), &QueryRequest{Patterns: []string{"triangle"}}, "", nil)
	disarm()
	if qerr == nil || qerr.Code != CodePanic {
		t.Fatalf("panicking query got %v, want the typed panic error", qerr)
	}
	if qerr.Retryable {
		t.Error("panic must be fatal")
	}
	if got := counter(s, MetricPanics); got == 0 {
		t.Error("panic counter never moved")
	}

	// The worker survived: the same server still answers.
	res, qerr := s.Submit(context.Background(), &QueryRequest{Patterns: []string{"triangle"}}, "", nil)
	if qerr != nil {
		t.Fatalf("server broken after a contained panic: %v", qerr)
	}
	if len(res.Counts) != 1 || res.Counts[0] == 0 {
		t.Fatalf("post-panic answer %v", res.Counts)
	}
}

// TestPanicOutsideEngineContainment: a panic from serving code itself
// (here the test seam) is caught by the server's own recover, not just
// the engines' per-worker containment.
func TestPanicOutsideEngineContainment(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: -1})
	s.testExec = func(t *task) (*QueryResult, *QueryError) { panic("serving-layer bug") }
	_, qerr := s.Submit(context.Background(), &QueryRequest{Patterns: []string{"triangle"}}, "", nil)
	if qerr == nil || qerr.Code != CodePanic {
		t.Fatalf("got %v, want panic", qerr)
	}
	s.testExec = nil
	if _, qerr := s.Submit(context.Background(), &QueryRequest{Patterns: []string{"triangle"}}, "", nil); qerr != nil {
		t.Fatalf("worker pool did not survive the panic: %v", qerr)
	}
}

// TestClientRetryBackoff scripts the server side: two retryable bounces,
// then success. The client must use exactly three attempts, honor the
// retry taxonomy, and never retry fatals.
func TestClientRetryBackoff(t *testing.T) {
	var mu sync.Mutex
	var calls int
	fail := func(w http.ResponseWriter, code Code, retryAfterMS int64) {
		qe := &QueryError{Code: code, Retryable: code.Retryable(), Message: "scripted", RetryAfterMS: retryAfterMS}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code.HTTPStatus())
		json.NewEncoder(w).Encode(StreamEvent{Type: EventError, Error: qe})
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		switch n {
		case 1:
			fail(w, CodeQueueFull, 1)
		case 2:
			fail(w, CodeOverloaded, 1)
		default:
			w.WriteHeader(http.StatusOK)
			json.NewEncoder(w).Encode(StreamEvent{Type: EventResult,
				Result: &QueryResult{Patterns: []string{"triangle"}, Counts: []uint64{7}, Cache: "miss"}})
		}
	}))
	defer ts.Close()

	c := &Client{Base: ts.URL, Retries: 5, Backoff: time.Millisecond, BackoffCap: 5 * time.Millisecond}
	res, attempts, err := c.QueryAttempts(context.Background(), QueryRequest{Patterns: []string{"triangle"}})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 3 || res.Counts[0] != 7 {
		t.Fatalf("attempts=%d counts=%v, want 3 attempts reaching the scripted answer", attempts, res.Counts)
	}

	// A fatal rejection must not be retried.
	var fatalCalls int
	tsFatal := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		fatalCalls++
		mu.Unlock()
		fail(w, CodeOverBudget, 0)
	}))
	defer tsFatal.Close()
	cf := &Client{Base: tsFatal.URL, Retries: 5, Backoff: time.Millisecond}
	_, attempts, err = cf.QueryAttempts(context.Background(), QueryRequest{Patterns: []string{"triangle"}})
	qe, ok := AsQueryError(err)
	if !ok || qe.Code != CodeOverBudget {
		t.Fatalf("got %v, want the rehydrated over_budget", err)
	}
	if attempts != 1 {
		t.Fatalf("fatal error used %d attempts, want 1", attempts)
	}
	mu.Lock()
	defer mu.Unlock()
	if fatalCalls != 1 {
		t.Fatalf("server saw %d calls for a fatal rejection", fatalCalls)
	}
}

// TestIsRetryable pins the taxonomy the CLI help text documents.
func TestIsRetryable(t *testing.T) {
	for code, want := range map[Code]bool{
		CodeQueueFull: true, CodeQuotaExhausted: true, CodeOverloaded: true, CodeDraining: true,
		CodeBadRequest: false, CodeOverBudget: false, CodeDeadline: false,
		CodeCanceled: false, CodePanic: false, CodeInternal: false,
	} {
		if got := IsRetryable(errf(code, "x")); got != want {
			t.Errorf("IsRetryable(%s) = %v, want %v", code, got, want)
		}
		if rejectMetric[code] == "" {
			t.Errorf("code %s has no reject counter", code)
		}
	}
	if IsRetryable(context.DeadlineExceeded) || IsRetryable(context.Canceled) {
		t.Error("caller context expiry must never be retried")
	}
	if !IsRetryable(transportError{fmt.Errorf("connection refused")}) {
		t.Error("transport failures must be retryable")
	}
}

// TestCountOverflowIsFatal: a conversion whose arithmetic left uint64
// (core.ErrCountOverflow out of Runner.CountsCtx) becomes a fatal error
// document that says so, never a result.
func TestCountOverflowIsFatal(t *testing.T) {
	s := newTestServer(t, Config{})
	qe := s.classifyRunErr(fmt.Errorf("core: query 0 (4-star:v): %w", core.ErrCountOverflow), nil)
	if qe.Code != CodeInternal || qe.Retryable || IsRetryable(qe) || !strings.Contains(qe.Message, "count overflow") {
		t.Fatalf("overflow classified as %+v", qe)
	}
}

// TestRejectionOverWire: a pre-admission rejection travels as a real
// HTTP status with a Retry-After header, and the client rehydrates the
// typed error.
func TestRejectionOverWire(t *testing.T) {
	s := newTestServer(t, Config{AdmissionBudget: 1, RetryAfter: 2 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(QueryRequest{Patterns: []string{"triangle"}})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 for over_budget", resp.StatusCode)
	}

	c := &Client{Base: ts.URL}
	_, err = c.Query(context.Background(), QueryRequest{Patterns: []string{"triangle"}})
	qe, ok := AsQueryError(err)
	if !ok || qe.Code != CodeOverBudget || qe.Retryable {
		t.Fatalf("client rehydrated %v", err)
	}
}

// TestEveryScrapedMetricHasHelp scrapes /metrics after one query over a
// compressed graph and one rejection, with every per-code reject counter
// registered: each family the exposition prints has its HELP line from the
// published table ahead of its TYPE line, and none reads as a placeholder.
func TestEveryScrapedMetricHasHelp(t *testing.T) {
	c, err := graph.Compress(chordRing(64), 8)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s, err := New(c, Config{Obs: &obs.Observer{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Drain(context.Background()); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	for _, name := range rejectMetric {
		reg.Counter(name)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, body := post(t, ts.URL, QueryRequest{Patterns: []string{"triangle", "4-cycle:v"}})
	terminal(t, body)
	if resp, _ := post(t, ts.URL, QueryRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty query: status %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var text bytes.Buffer
	if _, err := text.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	helped := map[string]bool{}
	families := 0
	for _, line := range strings.Split(text.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, h, _ := strings.Cut(rest, " ")
			if h == "" || strings.Contains(h, name) {
				t.Errorf("%s: placeholder HELP text %q", name, h)
			}
			helped[name] = true
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families++
			if name, _, _ := strings.Cut(rest, " "); !helped[name] {
				t.Errorf("%s has no HELP line", name)
			}
		}
	}
	for _, name := range []string{MetricQueries, rejectMetric[CodePanic], "graph_decode_rows_total", "engine_matches_total"} {
		if !helped[name] {
			t.Errorf("%s missing from the scrape", name)
		}
	}
	t.Logf("%d families, all with HELP text", families)
}
