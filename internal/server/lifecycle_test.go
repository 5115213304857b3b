package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"morphing/internal/core"
	"morphing/internal/graph"
	"morphing/internal/obs"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// directCounts mines spellings on g without a server, keyed by codec form.
func directCounts(t testing.TB, g *graph.Graph, spellings ...string) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	r := &core.Runner{Engine: peregrine.New(0)}
	for _, sp := range spellings {
		p, err := ResolvePattern(sp)
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := r.CountsCtx(context.Background(), g, []*pattern.Pattern{p})
		if err != nil {
			t.Fatal(err)
		}
		out[p.String()] = c[0]
	}
	return out
}

// TestTaskPinsGraphAndEpoch: a leader held in the worker while the graph is
// swapped still mines the graph it was admitted under — its result is stored
// under that epoch's key and handed to that epoch's passengers, so it has to
// be that epoch's answer — and the next request misses on the new graph.
func TestTaskPinsGraphAndEpoch(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1}) // over chordRing(64): 64 triangles
	next := chordRing(32)
	was, now := directCounts(t, chordRing(64), "triangle"), directCounts(t, next, "triangle")
	block := make(chan struct{})
	s.testExec = func(*task) (*QueryResult, *QueryError) { <-block; return nil, nil } // then the real execution

	replies := make(chan *QueryResult, 3)
	var wg sync.WaitGroup
	ask := func(client string) {
		defer wg.Done()
		res, qerr := s.Submit(context.Background(), &QueryRequest{Patterns: []string{"triangle"}}, client, nil)
		if qerr != nil {
			t.Errorf("%s: %v", client, qerr)
			return
		}
		replies <- res
	}
	wg.Add(3)
	go ask("lead")
	waitUntil(t, "the leader's flight to register", func() bool { return flights(s) == 1 })
	go ask("p1")
	go ask("p2")
	waitUntil(t, "the passengers to attach", func() bool { return counter(s, MetricCoalesced) == 2 })
	s.SetGraph(next)
	close(block)
	wg.Wait()
	close(replies)
	for res := range replies {
		if res.Counts[0] != was["n=3;e=0-1,0-2,1-2"] {
			t.Errorf("%s reply admitted at epoch 1 counts %d triangles, want that graph's %v (the new graph has %v)", res.Cache, res.Counts[0], was, now)
		}
	}
	locked(s, func() {
		for key := range s.cache.entries {
			if key.epoch != 1 {
				t.Errorf("an entry is stored under epoch %d: the only execution was admitted at epoch 1", key.epoch)
			}
		}
	})
	res, qerr := s.Submit(context.Background(), &QueryRequest{Patterns: []string{"triangle"}}, "", nil)
	if qerr != nil || res.Cache != "miss" || res.Counts[0] != now["n=3;e=0-1,0-2,1-2"] {
		t.Errorf("after the swap: %+v, %v; want a miss counting %v", res, qerr, now)
	}
}

// TestHostileRequestBounds: a body over 1 MiB and a query of more than 1,024
// patterns are refused as typed bad_request before anything is resolved, and
// counted as rejects.
func TestHostileRequestBounds(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	many := QueryRequest{Patterns: make([]string, maxPatterns+1)}
	for i := range many.Patterns {
		many.Patterns[i] = "triangle"
	}
	manyBody, _ := json.Marshal(many)
	huge := []byte(`{"patterns":["` + strings.Repeat("x", maxBodyBytes) + `"]}`)
	for name, body := range map[string][]byte{"too many patterns": manyBody, "body over the bound": huge} {
		before := counter(s, rejectMetric[CodeBadRequest])
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ev StreamEvent
		err = json.NewDecoder(resp.Body).Decode(&ev)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || ev.Error == nil || ev.Error.Code != CodeBadRequest {
			t.Errorf("%s: status %d, event %+v (%v), want 400 with a typed bad_request", name, resp.StatusCode, ev, err)
		}
		if got := counter(s, rejectMetric[CodeBadRequest]) - before; got != 1 {
			t.Errorf("%s: counted %d rejects, want 1", name, got)
		}
	}
	if q := counter(s, MetricQueries); q != 0 {
		t.Errorf("%d executions: a hostile request got past the bounds", q)
	}
}

// ---- the lifecycle harness ----

// trace is what a client can observe of one query's life: the progress
// events it was sent, in order, and its one terminal outcome.
type trace struct {
	req    *QueryRequest
	e0, e1 uint64 // graph epochs just before Submit and just after it returned
	events []string
	late   bool // an event arrived after Submit had returned
	res    *QueryResult
	qerr   *QueryError
}

// model is the reference machine: it replays a trace along received →
// (riding | admitted) → queued → running → terminal and says how far the
// query got — 0: never queued, 1: queued, 2: mined — or why no path of the
// machine produces the trace. Its tallies are what the server's own
// accounting must read at quiescence.
type model struct {
	total, bad, queued, mined uint64
	seen                      map[string]int // outcomes by disposition or error code
}

func (m *model) replay(tr *trace) error {
	if (tr.res != nil) == (tr.qerr != nil) {
		return fmt.Errorf("not exactly one terminal: result %v, error %v", tr.res, tr.qerr)
	}
	if tr.late {
		return fmt.Errorf("an event after the terminal outcome")
	}
	reached := len(tr.events)
	for i, ev := range tr.events {
		if i >= 2 || ev != []string{EventQueued, EventStarted}[i] {
			return fmt.Errorf("events %v: want queued, then started, then nothing", tr.events)
		}
	}
	how, interrupted := "", false
	if tr.qerr != nil {
		how, interrupted = string(tr.qerr.Code), tr.qerr.Code == CodeDeadline || tr.qerr.Code == CodeCanceled
		if how != string(CodeBadRequest) {
			m.bad++
		}
	} else {
		how = tr.res.Cache
	}
	switch {
	case reached == 0 && how == "miss": // only a worker mines
	case reached == 1 && !interrupted: // queued → terminal is the dead-at-pickup edge alone
	case reached == 2 && !(how == "miss" || interrupted || how == string(CodePanic) || how == string(CodeInternal)):
	default:
		m.total++
		m.seen[how]++
		if reached >= 1 {
			m.queued++
		}
		if reached == 2 {
			m.mined++
		}
		return nil
	}
	return fmt.Errorf("outcome %q after events %v: no such path", how, tr.events)
}

type fault int

const (
	faultNone  fault = iota
	faultSlow        // hold the worker until the round's gate opens or the query's context ends
	faultPanic       // panic in serving code
	faultFail        // a typed internal error
)

// lifecycleRuns numbers the harness's runs in this process, so that
// -count=N covers seeds 1..N.
var lifecycleRuns atomic.Int64

var garbage = &QueryResult{Patterns: []string{"not a pattern"}} // what a planted entry or flight answers

// TestLifecycleModel drives one server through seeded rounds of concurrent
// clients — cacheable, no_cache and report requests in permuted and
// isomorphic spellings, client cancels and short deadlines, executions that
// block, panic or fail — under quota, budget and queue pressure, with the
// graph swapped, a contended lock and misaligned cache entries and flights
// planted mid-round, and finally a drain over stragglers. After every round
// each query's trace must be a path of the reference model, every answer
// the direct count on a graph served while it was asked, every cache entry
// the answer of the epoch it is keyed under, nothing may stay held, and the
// SLO tracker, the phase histograms and the execution counter must read
// what the model tallied.
func TestLifecycleModel(t *testing.T) {
	seed := lifecycleRuns.Add(1)
	rng := rand.New(rand.NewSource(seed))
	base := runtime.NumGoroutine()

	sizes := []int{24, 32, 40} // chordRing(n) has n triangles: an answer names its graph
	sets := [][][]string{
		{{"triangle"}, {"n=3;e=0-1,1-2,0-2"}, {"n=3;e=0-2,0-1,1-2"}},
		{{"triangle", "4-cycle:v"}, {"4-cycle:v", "triangle"}, {"n=4;e=0-2,2-1,1-3,3-0;v", "n=3;e=0-1,1-2,0-2"}},
		{{"p1:v", "p2:v", "p3"}, {"p3", "p1:v", "p2:v"}, {"p2:v", "p3", "tailed-triangle:v"}},
		{{"4-star:v", "tailed-triangle:v", "4-cycle:v", "chordal-4-cycle:v", "4-clique:v"}}, // alone over the budget
	}
	direct := make([]map[string]uint64, len(sizes))
	for i, n := range sizes {
		direct[i] = map[string]uint64{}
		for _, set := range sets {
			for _, spelling := range set {
				for k, v := range directCounts(t, chordRing(n), spelling...) {
					direct[i][k] = v
				}
			}
		}
	}
	var big []*pattern.Pattern
	for _, sp := range sets[3][0] {
		p, _ := ResolvePattern(sp)
		big = append(big, p)
	}
	est, err := (&core.Runner{Engine: peregrine.New(0)}).EstimateAdmission(context.Background(), chordRing(sizes[0]), big, aggFor("count"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MaxInFlight: 2, MaxQueue: 2, PerClientInFlight: 2, DrainTimeout: 30 * time.Millisecond,
		AdmissionBudget: est.MatchBytes - 1, SampleInterval: -1,
		Obs: &obs.Observer{Metrics: obs.NewRegistry()}}
	s, err := New(chordRing(sizes[0]), cfg)
	if err != nil {
		t.Fatal(err)
	}
	graphAt := map[uint64]int{1: 0} // epoch → index into sizes
	var faults sync.Map             // *QueryRequest → fault
	var gate chan struct{}
	s.testExec = func(tk *task) (*QueryResult, *QueryError) {
		f, _ := faults.Load(tk.req)
		switch f.(fault) {
		case faultSlow:
			select {
			case <-gate:
			case <-tk.ctx.Done():
				return nil, classifyCtxErr(tk.ctx.Err(), "while mining")
			}
		case faultPanic:
			panic("lifecycle harness")
		case faultFail:
			return nil, errf(CodeInternal, "lifecycle harness")
		}
		return nil, nil // the real execution
	}

	m := &model{seen: map[string]int{}}
	submit := func(ctx context.Context, req *QueryRequest, client string, f fault) *trace {
		tr := &trace{req: req, e0: s.GraphEpoch()}
		faults.Store(req, f)
		var returned atomic.Bool
		tr.res, tr.qerr = s.Submit(ctx, req, client, func(ev StreamEvent) {
			tr.late = tr.late || returned.Load()
			tr.events = append(tr.events, ev.Type)
		})
		returned.Store(true)
		tr.e1 = s.GraphEpoch()
		return tr
	}
	var planted []cacheKey // flights the harness registered itself
	// check is the per-round oracle; every client has returned when it runs.
	check := func(round int, traces []*trace) {
		t.Helper()
		for _, tr := range traces {
			if err := m.replay(tr); err != nil {
				t.Errorf("seed %d round %d: %v %+v: %v", seed, round, tr.req.Patterns, *tr.req, err)
				continue
			}
			if tr.res == nil {
				continue
			}
			if (tr.res.Report != nil) != tr.req.Report || tr.res.RunID == "" || (tr.req.Report && tr.res.Report.RunID != tr.res.RunID) {
				t.Errorf("seed %d round %d: report asked %v, got %v of run %q", seed, round, tr.req.Report, tr.res.Report != nil, tr.res.RunID)
			}
			ok := false // lean or with a report, the answer is a served graph's direct count
			for e := tr.e0; e <= tr.e1 && !ok; e++ {
				ok = len(tr.res.Counts) == len(tr.req.Patterns)
				for i, sp := range tr.req.Patterns {
					p, _ := ResolvePattern(sp)
					ok = ok && tr.res.Counts[i] == direct[graphAt[e]][p.String()]
				}
			}
			if !ok {
				t.Errorf("seed %d round %d: %v answered %v (%s) between epochs %d and %d: no graph served then counts that",
					seed, round, tr.req.Patterns, tr.res.Counts, tr.res.Cache, tr.e0, tr.e1)
			}
		}
		locked(s, func() {
			for _, key := range planted {
				if fl := s.cache.flights[key]; fl != nil && fl.result == garbage {
					delete(s.cache.flights, key) // nobody asked for it this round
				}
			}
			planted = planted[:0]
			if len(s.clients) != 0 || s.budgetUse != 0 || len(s.admitted) != 0 || len(s.cache.flights) != 0 || s.queued != 0 || s.executing != 0 || len(s.queue) != 0 {
				t.Fatalf("seed %d round %d: still held at quiescence: quotas %v, budget %d, %d admitted, %d flights, %d queued (%d in the channel), %d executing",
					seed, round, s.clients, s.budgetUse, len(s.admitted), len(s.cache.flights), s.queued, len(s.queue), s.executing)
			}
			for key, el := range s.cache.entries {
				res := el.Value.(*cacheEntry).res
				for i, p := range res.Patterns {
					if res != garbage && res.Counts[i] != direct[graphAt[key.epoch]][p] {
						t.Errorf("seed %d round %d: the entry under epoch %d holds %d for %s, that epoch's graph counts %d",
							seed, round, key.epoch, res.Counts[i], p, direct[graphAt[key.epoch]][p])
					}
				}
			}
		})
		slo := s.slo.Status(time.Now())
		want := map[string]uint64{"admit": m.queued, "queue": m.queued, "mine": m.mined, "total": m.total}
		for i, name := range []string{MetricPhaseAdmitNS, MetricPhaseQueueNS, MetricPhaseMineNS, MetricPhaseTotalNS} {
			if got, scored := s.o.Histogram(name).Snapshot().Count, slo.Phases[sloPhaseNames[i]].Count; got != want[sloPhaseNames[i]] || scored != got {
				t.Errorf("seed %d round %d: %s observed %d queries, the SLO phase %d, the model says %d reached it", seed, round, name, got, scored, want[sloPhaseNames[i]])
			}
		}
		if slo.Total != m.total || slo.Errors != m.bad || counter(s, MetricQueries) != m.queued {
			t.Errorf("seed %d round %d: SLO scored %d queries, %d bad, %d executions; the model %d, %d, %d", seed, round,
				slo.Total, slo.Errors, counter(s, MetricQueries), m.total, m.bad, m.queued)
		}
	}

	type planned struct {
		req      *QueryRequest
		client   string
		f        fault
		cancelIn time.Duration // > 0: the client goes away after this long
	}
	plan := func() planned {
		set := sets[rng.Intn(len(sets))]
		if rng.Intn(8) > 0 { // the over-budget set only now and then
			set = sets[rng.Intn(len(sets)-1)]
		}
		p := planned{client: fmt.Sprint("client-", rng.Intn(3)), req: &QueryRequest{
			Patterns: set[rng.Intn(len(set))], Report: rng.Intn(2) == 0, NoCache: rng.Intn(5) == 0}}
		switch r := rng.Intn(20); {
		case r < 5:
			p.f = faultSlow
		case r == 5:
			p.f = faultPanic
		case r == 6:
			p.f = faultFail
		}
		switch r := rng.Intn(10); r {
		case 0:
			p.req.DeadlineMS = 1 + int64(rng.Intn(5))
		case 1:
			p.cancelIn = time.Duration(1+rng.Intn(3000)) * time.Microsecond
		}
		return p
	}
	run := func(p planned) *trace {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if p.cancelIn > 0 {
			defer time.AfterFunc(p.cancelIn, cancel).Stop()
		}
		return submit(ctx, p.req, p.client, p.f)
	}

	const rounds = 60
	for round := 0; round < rounds; round++ {
		gate = make(chan struct{})
		plans := make([]planned, 4+rng.Intn(7))
		for i := range plans {
			plans[i] = plan()
		}
		traces := make([]*trace, len(plans), len(plans)+1) // room for the rider of a planted flight
		var wg sync.WaitGroup
		ask := func(out **trace, p planned) {
			defer wg.Done()
			*out = run(p)
		}
		for i := range plans {
			wg.Add(1)
			go ask(&traces[i], plans[i])
			if rng.Intn(3) == 0 {
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
		}
		for _, action := range rng.Perm(4)[:rng.Intn(3)] {
			switch action {
			case 0: // swap the graph under whatever is in flight
				next := rng.Intn(len(sizes))
				locked(s, func() { graphAt[s.epoch+1] = next })
				s.SetGraph(chordRing(sizes[next]))
			case 1: // a stored entry that covers no spelling of its key
				locked(s, func() {
					for _, el := range s.cache.entries {
						el.Value.(*cacheEntry).res = garbage
						break
					}
				})
			case 2: // a finished flight that covers no spelling of its key, and a client to ride it
				set := sets[rng.Intn(len(sets)-1)]
				tk := &task{req: &QueryRequest{Patterns: set[0]}}
				s.prepare(tk)
				done := make(chan struct{})
				close(done)
				locked(s, func() {
					tk.key.epoch = s.epoch
					if s.cache.flights[tk.key] == nil {
						s.cache.flights[tk.key] = &flight{done: done, result: garbage}
						planted = append(planted, tk.key)
					}
				})
				wg.Add(1)
				traces = append(traces, nil)
				go ask(&traces[len(traces)-1], planned{client: "rider", req: &QueryRequest{Patterns: set[len(set)-1]}})
			case 3: // a lock held long enough that the waiters behind it are handed it in turn
				var pollers sync.WaitGroup
				for i := 0; i < 3; i++ {
					pollers.Add(1)
					go func() {
						defer pollers.Done()
						for i := 0; i < 50; i++ {
							s.Draining()
						}
					}()
				}
				locked(s, func() { time.Sleep(2 * time.Millisecond) })
				pollers.Wait()
			}
		}
		close(gate)
		wg.Wait()
		check(round, traces)
	}

	// The hand-over: both workers are held and the harness is the third, one
	// that polls the queue and so has a task the instant it is sent. A task is
	// sent inside its queued edge's critical section; if that section is still
	// open when the harness has the task (nobody else takes s.mu in this
	// stage), the queued event must already be posted — which is what puts
	// queued before started on every stream. Hand-overs seen too late to tell
	// are skipped.
	gate = make(chan struct{})
	var wg sync.WaitGroup
	traces := make([]*trace, 2, 2+60)
	for i := range traces {
		wg.Add(1)
		go func(out **trace, client string) {
			defer wg.Done()
			*out = run(planned{client: client, f: faultSlow, req: &QueryRequest{Patterns: sets[0][0], NoCache: true}})
		}(&traces[i], fmt.Sprint("holder-", i))
	}
	waitUntil(t, "both workers to be held", func() bool { _, e := queueState(s); return e == 2 })
	stop, stopped := make(chan struct{}), make(chan struct{})
	var inside, unposted int
	go func() {
		defer close(stopped)
		for {
			select {
			case tk := <-s.queue:
				// Read first: once the sender has unlocked, its Submit is
				// free to consume the event.
				if posted := len(tk.events); !s.mu.TryLock() {
					if inside++; posted == 0 {
						unposted++
					}
				} else {
					s.mu.Unlock()
				}
				if s.step(tk, stRunning, nil, nil) == stRunning { // as Server.worker
					res, qerr := s.execute(tk)
					s.step(tk, stTerminal, res, qerr)
				}
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	for i := 0; i < 60; i++ {
		traces = append(traces, run(planned{client: "probe", req: &QueryRequest{Patterns: sets[i%3][0], NoCache: true}}))
	}
	close(stop)
	<-stopped
	close(gate)
	wg.Wait()
	check(rounds, traces)
	t.Logf("seed %d: %d of 60 hand-overs seen inside the sender's critical section", seed, inside)
	if unposted > 0 {
		t.Errorf("seed %d: %d of those %d tasks reached a worker before their queued event was posted", seed, unposted, inside)
	}

	// Drain over stragglers: two executions that never finish on their own,
	// two queries queued behind them, one more that arrives too late.
	gate = make(chan struct{})
	traces = make([]*trace, 5)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			traces[i] = run(planned{client: fmt.Sprint("straggler-", i), f: faultSlow,
				req: &QueryRequest{Patterns: sets[i%3][0], NoCache: true}})
		}(i)
	}
	waitUntil(t, "two stragglers mining, two queued", func() bool { q, e := queueState(s); return q == 2 && e == 2 })
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitUntil(t, "drain to start", s.Draining)
	traces[4] = run(planned{client: "late", req: &QueryRequest{Patterns: sets[0][0]}})
	if err := <-drained; err != nil {
		t.Fatalf("seed %d: drain: %v", seed, err)
	}
	wg.Wait()
	check(rounds+1, traces)
	if traces[4].qerr == nil || traces[4].qerr.Code != CodeDraining || counter(s, MetricDrainCanceled) != 4 {
		t.Errorf("seed %d: the late query got %v, %d drain-canceled; want draining and 4", seed, traces[4].qerr, counter(s, MetricDrainCanceled))
	}
	waitForGoroutines(t, base, "the lifecycle harness")
	t.Logf("seed %d: %d queries, %d queued, %d mined, outcomes %v", seed, m.total, m.queued, m.mined, m.seen)
	for _, paths := range [][]string{{"miss"}, {"hit"}, {"coalesced"}, {string(CodeDraining)}, {string(CodePanic), string(CodeInternal)},
		{string(CodeDeadline), string(CodeCanceled)}, {string(CodeQuotaExhausted)},
		{string(CodeOverBudget), string(CodeOverloaded), string(CodeQueueFull)}} { // the last: admitted → terminal
		n := 0
		for _, how := range paths {
			n += m.seen[how]
		}
		if n == 0 {
			t.Errorf("seed %d: no query ended in any of %v: the schedule no longer reaches that path", seed, paths)
		}
	}
}
