package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"morphing/internal/core"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/report"
)

// pool is the benchmark's serve pool: the twelve small count queries
// whose hits the one-write and size bounds are stated for.
var pool = [][]string{
	{"triangle"}, {"p1"}, {"p2"}, {"p3"}, {"p1:v"}, {"p2:v"}, {"4-cycle:v"},
	{"triangle", "4-cycle:v"},
	{"4-star:v", "tailed-triangle:v"},
	{"4-clique", "chordal-4-cycle:v"},
	{"p1:v", "p2:v", "p3"},
	{"4-star:v", "tailed-triangle:v", "4-cycle:v", "chordal-4-cycle:v", "4-clique:v"},
}

// wireCounter counts what the server side of every accepted connection
// writes: calls (one per syscall) and bytes.
type wireCounter struct {
	net.Listener
	writes, bytes atomic.Int64
}

func (l *wireCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{c, l}, nil
}

type countedConn struct {
	net.Conn
	l *wireCounter
}

func (c *countedConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	c.l.bytes.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// serveCounted serves s over loopback behind a wireCounter.
func serveCounted(t testing.TB, s *Server) (*httptest.Server, *wireCounter) {
	t.Helper()
	ts := httptest.NewUnstartedServer(s.Handler())
	wc := &wireCounter{Listener: ts.Listener}
	ts.Listener = wc
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, wc
}

// post sends one raw query and returns the response, body read to its
// end (so the connection is reusable).
func post(t testing.TB, url string, req QueryRequest) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, got
}

// wireResult is a terminal result event with its result's keys kept raw.
type wireResult struct {
	Type   string                     `json:"type"`
	Result map[string]json.RawMessage `json:"result"`
}

// terminal decodes the last line of a reply, which must be a result.
func terminal(t testing.TB, body []byte) wireResult {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var ev wireResult
	if err := json.Unmarshal(lines[len(lines)-1], &ev); err != nil || ev.Type != EventResult {
		t.Fatalf("terminal line %q is not a result: %v", lines[len(lines)-1], err)
	}
	return ev
}

// check asserts the result's exact key set, disposition and run ID.
func (ev wireResult) check(t testing.TB, what, cache, runID string, keys ...string) {
	t.Helper()
	var got []string
	for k := range ev.Result {
		got = append(got, k)
	}
	sort.Strings(got)
	sort.Strings(keys)
	if fmt.Sprint(got) != fmt.Sprint(keys) {
		t.Errorf("%s: result keys %v, want %v", what, got, keys)
	}
	if c := string(ev.Result["cache"]); c != `"`+cache+`"` {
		t.Errorf("%s: cache %s, want %q", what, c, cache)
	}
	if id := string(ev.Result["run_id"]); id == `""` || (runID != "" && id != `"`+runID+`"`) {
		t.Errorf("%s: run_id %s, want %q (never empty)", what, id, runID)
	}
}

// TestLeanResultOnTheWire is the wire golden: a default result — miss,
// hit or coalesced — has the answers, the disposition and the run ID and
// nothing else, and "report": true on a hit returns the originating
// execution's report.
func TestLeanResultOnTheWire(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	q := QueryRequest{Patterns: []string{"triangle", "4-cycle:v"}}
	_, body := post(t, ts.URL, q)
	miss := terminal(t, body)
	miss.check(t, "miss", "miss", "", "patterns", "counts", "cache", "run_id")
	var runID string
	json.Unmarshal(miss.Result["run_id"], &runID)

	_, body = post(t, ts.URL, q)
	terminal(t, body).check(t, "hit", "hit", runID, "patterns", "counts", "cache", "run_id")

	q.Report = true
	_, body = post(t, ts.URL, q)
	full := terminal(t, body)
	full.check(t, "hit with report", "hit", runID, "patterns", "counts", "cache", "run_id", "report")
	var rep report.RunReport
	if err := json.Unmarshal(full.Result["report"], &rep); err != nil {
		t.Fatal(err)
	}
	if rep.RunID != runID || rep.Phase != core.PhaseDone {
		t.Errorf("report of run %q in phase %q, want the miss's run %q, done", rep.RunID, rep.Phase, runID)
	}
	if execs := counter(s, MetricQueries); execs != 1 {
		t.Errorf("%d executions, want 1: report is not part of the cache key", execs)
	}

	_, body = post(t, ts.URL, QueryRequest{Patterns: []string{"triangle"}, App: "mni"})
	terminal(t, body).check(t, "mni miss", "miss", "", "patterns", "supports", "cache", "run_id")

	// A coalesced passenger, and the leader it rode: the leader is held in
	// the test seam until the passenger has attached.
	block := make(chan struct{})
	s.testExec = func(tk *task) (*QueryResult, *QueryError) {
		<-block
		res := fixedResult(tk)
		res.RunID, res.Report = "r-lead", &report.RunReport{RunID: "r-lead", Phase: core.PhaseDone}
		return res, nil
	}
	replies := make(chan []byte, 2)
	var wg sync.WaitGroup
	ask := func() {
		defer wg.Done()
		_, body := post(t, ts.URL, QueryRequest{Patterns: []string{"p1"}})
		replies <- body
	}
	wg.Add(2)
	go ask()
	waitUntil(t, "the leader's flight to register", func() bool { return flights(s) == 1 })
	go ask()
	waitUntil(t, "the passenger to attach", func() bool { return counter(s, MetricCoalesced) == 1 })
	close(block)
	wg.Wait()
	close(replies)
	seen := map[string]bool{}
	for body := range replies {
		ev := terminal(t, body)
		var cache string
		json.Unmarshal(ev.Result["cache"], &cache)
		seen[cache] = true
		ev.check(t, cache, cache, "r-lead", "patterns", "counts", "cache", "run_id")
	}
	if !seen["miss"] || !seen["coalesced"] {
		t.Errorf("dispositions %v, want one miss and one coalesced", seen)
	}
}

// TestHitIsOneUnchunkedWrite: for every query of the pool a hit leaves
// the server as one Write — Content-Length, no chunked framing, one line
// under 512 bytes — while an admitted miss still streams: queued is on
// the wire before the query has finished.
func TestHitIsOneUnchunkedWrite(t *testing.T) {
	s := newTestServer(t, Config{})
	ts, wc := serveCounted(t, s)
	for _, patterns := range pool {
		q := QueryRequest{Patterns: patterns}
		_, body := post(t, ts.URL, q)
		terminal(t, body).check(t, "warm-up", "miss", "", "patterns", "counts", "cache", "run_id")

		before := wc.writes.Load()
		resp, body := post(t, ts.URL, q)
		terminal(t, body).check(t, "repeat", "hit", "", "patterns", "counts", "cache", "run_id")
		if n := wc.writes.Load() - before; n != 1 {
			t.Errorf("%v: a hit took %d writes, want 1", patterns, n)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%v: Content-Length %d for %d bytes, Transfer-Encoding %v", patterns, resp.ContentLength, len(body), resp.TransferEncoding)
		}
		if len(body) >= 512 || bytes.Count(body, []byte("\n")) != 1 || body[len(body)-1] != '\n' {
			t.Errorf("%v: hit body is not one line under 512 B: %d bytes %q", patterns, len(body), body)
		}
	}

	// A miss, read line by line: the execution is held until the test has
	// the queued event in hand.
	gotQueued := make(chan struct{})
	s.testExec = func(tk *task) (*QueryResult, *QueryError) {
		<-gotQueued
		return fixedResult(tk), nil
	}
	reqBody, _ := json.Marshal(QueryRequest{Patterns: []string{"p4"}})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if len(resp.TransferEncoding) == 0 || resp.TransferEncoding[0] != "chunked" {
		t.Errorf("a streamed reply is not chunked: Transfer-Encoding %v, Content-Length %d", resp.TransferEncoding, resp.ContentLength)
	}
	br := bufio.NewReader(resp.Body)
	var types []string
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			break
		}
		var ev StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("stream line %q: %v", line, err)
		}
		if types = append(types, ev.Type); ev.Type == EventQueued {
			close(gotQueued)
		}
	}
	if got := strings.Join(types, " "); !strings.Contains(got, EventQueued) || !strings.HasSuffix(got, " "+EventResult) {
		t.Errorf("a miss streamed %q, want queued before a final result", got)
	}
}

// TestConcurrentSpellingsAndEpochs hammers the hit path now that it
// aligns outside the lock: 8 clients send permuted and isomorphic
// spellings of three query sets, report on and off, some bypassing the
// cache, while the graph is swapped (for an equal one) midway. Every
// answer must be the direct count in request order, the dispositions
// must add up against the server's counters, and nothing may stay held.
func TestConcurrentSpellingsAndEpochs(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 2, PerClientInFlight: 1, AdmissionBudget: 1 << 40})
	g := chordRing(64)
	r := &core.Runner{Engine: peregrine.New(0)}
	direct := map[string]uint64{}
	count := func(spelling string) uint64 {
		p, err := ResolvePattern(spelling)
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := r.CountsCtx(context.Background(), g, []*pattern.Pattern{p})
		if err != nil {
			t.Fatal(err)
		}
		return c[0]
	}
	// Three sets, each in several spellings: named, codec text and a
	// renumbered isomorph share one cache key.
	sets := [][][]string{
		{{"triangle"}, {"n=3;e=0-1,1-2,0-2"}, {"n=3;e=0-2,0-1,1-2"}},
		{{"triangle", "4-cycle:v"}, {"4-cycle:v", "triangle"}, {"n=4;e=0-2,2-1,1-3,3-0;v", "n=3;e=0-1,1-2,0-2"}},
		{{"p1:v", "p2:v", "p3"}, {"p3", "p1:v", "p2:v"}, {"p2:v", "p3", "tailed-triangle:v"}},
	}
	for _, set := range sets {
		for _, spelling := range set {
			for _, p := range spelling {
				direct[p] = count(p)
			}
		}
	}

	const clients, rounds = 8, 36
	var disp [clients]map[string]int
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		disp[c] = map[string]int{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if c == 0 && i == rounds/2 {
					s.SetGraph(chordRing(64))
				}
				set := sets[(c+i)%len(sets)]
				req := &QueryRequest{
					Patterns: set[(c+i/3)%len(set)],
					Report:   i%2 == 0,
					NoCache:  (c+i)%9 == 0,
				}
				res, qerr := s.Submit(context.Background(), req, fmt.Sprint("client-", c), nil)
				if qerr != nil {
					t.Errorf("client %d round %d %v: %v", c, i, req.Patterns, qerr)
					return
				}
				disp[c][res.Cache]++
				for j, p := range req.Patterns {
					if len(res.Counts) != len(req.Patterns) || res.Counts[j] != direct[p] {
						t.Errorf("client %d round %d: %v answered %v, want %d for %s at %d", c, i, req.Patterns, res.Counts, direct[p], p, j)
					}
				}
				if (res.Report != nil) != req.Report || res.RunID == "" || (req.Report && res.Report.RunID != res.RunID) {
					t.Errorf("client %d round %d: report asked %v, got %v of run %q", c, i, req.Report, res.Report != nil, res.RunID)
				}
			}
		}(c)
	}
	wg.Wait()

	total := map[string]int{}
	for _, d := range disp {
		for k, n := range d {
			total[k] += n
		}
	}
	t.Logf("dispositions %v", total)
	if n := total["hit"] + total["miss"] + total["coalesced"]; n != clients*rounds || len(total) > 3 {
		t.Errorf("dispositions %v do not add up to %d", total, clients*rounds)
	}
	if h, c, m := counter(s, MetricCacheHits), counter(s, MetricCoalesced), counter(s, MetricQueries); int(h) != total["hit"] || int(c) != total["coalesced"] || int(m) != total["miss"] {
		t.Errorf("server counted %d hits, %d coalesced, %d executions; clients saw %v", h, c, m, total)
	}
	if total["hit"] == 0 || counter(s, MetricRejects) != 0 {
		t.Errorf("no hit at all, or rejects: %v, %d rejects", total, counter(s, MetricRejects))
	}
	waitUntil(t, "workers to go idle", func() bool { q, e := queueState(s); return q == 0 && e == 0 })
	locked(s, func() {
		if len(s.clients) != 0 || s.budgetUse != 0 || len(s.admitted) != 0 || len(s.cache.flights) != 0 {
			t.Errorf("still held: quotas %v, budget %d, %d admitted, %d flights", s.clients, s.budgetUse, len(s.admitted), len(s.cache.flights))
		}
	})
}

// TestClientStreamLines: the client's line buffer starts small and grows,
// so a result line far longer than it parses; a line over the bound and a
// stream cut mid-line are transport failures, which are retryable.
func TestClientStreamLines(t *testing.T) {
	long := StreamEvent{Type: EventResult, Result: &QueryResult{
		Patterns: []string{strings.Repeat("x", 100<<10)}, Counts: []uint64{7}, Cache: "miss"}}
	line, _ := json.Marshal(long)
	var cut atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(StreamEvent{Type: EventQueued})
		if cut.Load() {
			w.Write(line[:len(line)/2])
			return
		}
		w.Write(append(line, '\n'))
	}))
	defer ts.Close()
	q := QueryRequest{Patterns: []string{"triangle"}}

	res, err := (&Client{Base: ts.URL}).Query(context.Background(), q)
	if err != nil || len(res.Patterns[0]) != 100<<10 || res.Counts[0] != 7 {
		t.Fatalf("a %d-byte result line: %v", len(line), err)
	}
	_, err = (&Client{Base: ts.URL, maxLine: 64 << 10}).Query(context.Background(), q)
	if _, ok := err.(transportError); !ok || !IsRetryable(err) {
		t.Errorf("a line over the bound: %v, want a retryable transport error", err)
	}
	cut.Store(true)
	_, err = (&Client{Base: ts.URL}).Query(context.Background(), q)
	if _, ok := err.(transportError); !ok || !IsRetryable(err) {
		t.Errorf("a stream cut mid-line: %v, want a retryable transport error", err)
	}
}

// cannedReply answers every request with the same 200 body: a client
// measured against it allocates for nobody else.
type cannedReply []byte

func (c cannedReply) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(c))}, nil
}

var sinkResult *QueryResult

// BenchmarkServeHit times one cache hit end to end over loopback — one
// keep-alive client, the real handler — and reports what the server
// writes per reply. Before the timed loop it checks the bound the lean
// wire bought the client: parsing a hit allocates under 16 KiB (a 64 KiB
// scanner buffer alone, per request, before).
func BenchmarkServeHit(b *testing.B) {
	s, err := New(chordRing(64), Config{SampleInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain(context.Background())
	ts, wc := serveCounted(b, s)
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	c := &Client{Base: ts.URL, Token: "bench", HTTP: &http.Client{Transport: tr}}
	q := QueryRequest{Patterns: []string{"triangle", "4-cycle:v"}}
	hit := func(c *Client) {
		res, err := c.Query(context.Background(), q)
		if err != nil || res.Cache != "hit" {
			b.Fatalf("not a hit: %+v, %v", res, err)
		}
		sinkResult = res
	}
	post(b, ts.URL, q) // the miss that fills the cache
	_, reply := post(b, ts.URL, q)

	const probe = 200
	canned := &Client{Base: "http://canned", HTTP: &http.Client{Transport: cannedReply(reply)}}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < probe; i++ {
		hit(canned)
	}
	runtime.ReadMemStats(&m1)
	clientB := float64(m1.TotalAlloc-m0.TotalAlloc) / probe
	if clientB >= 16<<10 {
		b.Fatalf("the client allocates %.0f B to parse a hit, want under 16 KiB", clientB)
	}

	b.ReportAllocs()
	wire := wc.bytes.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit(c)
	}
	b.StopTimer()
	b.ReportMetric(float64(wc.bytes.Load()-wire)/float64(b.N), "wire-B/op")
	b.ReportMetric(clientB, "client-B/op")
}
