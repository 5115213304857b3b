package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterShardedConcurrentAdds(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total")
	const workers = 32
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc(w)
			}
		}(w)
	}
	// Concurrent merged reads must be safe while writers are running.
	for i := 0; i < 100; i++ {
		_ = c.Value()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if r.Counter("test_total") != c {
		t.Fatal("registry did not return the same counter instance")
	}
}

func TestCounterWorkerIDsBeyondShardCount(t *testing.T) {
	var c Counter
	c.Add(0, 1)
	c.Add(shardCount, 1)      // wraps onto shard 0
	c.Add(17*shardCount+3, 5) // wraps onto shard 3
	if got := c.Value(); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
}

func TestNilMetricsAreInert(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(0, 5)
	c.Inc(1)
	if c.Value() != 0 || c.Name() != "" {
		t.Fatal("nil counter not inert")
	}
	g := r.Gauge("y")
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge not inert")
	}
	h := r.Histogram("z")
	h.Observe(0, 9)
	if h.Snapshot().Count != 0 {
		t.Fatal("nil histogram not inert")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var o *Observer
	o.Counter("c").Inc(0) // must not panic
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("cost")
	g.Set(12.5)
	if g.Value() != 12.5 {
		t.Fatalf("gauge = %v, want 12.5", g.Value())
	}
	g.Set(-3)
	if g.Value() != -3 {
		t.Fatalf("gauge = %v, want -3", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns")
	h.Observe(0, 0)   // bucket 0
	h.Observe(1, 1)   // bucket 1
	h.Observe(2, 2)   // bucket 2
	h.Observe(3, 3)   // bucket 2
	h.Observe(70, 16) // bucket 5, worker beyond shard count
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 22 {
		t.Fatalf("count=%d sum=%d, want 5/22", s.Count, s.Sum)
	}
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 5: 1}
	for i, n := range s.Buckets {
		if n != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	if BucketUpperBound(0) != 0 || BucketUpperBound(2) != 3 || BucketUpperBound(5) != 31 {
		t.Fatal("bucket upper bounds wrong")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations of 100ns and one straggler at ~1ms: the p50 must
	// stay in the 100ns bucket and the p99+ must not (p99 rank 100 of 101
	// still lands in the dense bucket; p50 certainly does).
	for i := 0; i < 100; i++ {
		h.Observe(i, 100)
	}
	h.Observe(0, 1_000_000)
	s := h.Snapshot()
	if p50 := s.Quantile(0.50); p50 < 64 || p50 > 127 {
		t.Fatalf("p50 = %d, want within the [64,128) bucket", p50)
	}
	if p100 := s.Quantile(1.0); p100 < 1<<19 || p100 > 1<<20 {
		t.Fatalf("p100 = %d, want within the straggler's bucket [2^19, 2^20)", p100)
	}
	if s.P50 != s.Quantile(0.50) || s.P95 != s.Quantile(0.95) || s.P99 != s.Quantile(0.99) {
		t.Fatal("snapshot summary fields disagree with Quantile()")
	}
	if s.Quantile(0.5) < s.Quantile(0.0) || s.Quantile(1.0) < s.Quantile(0.99) {
		t.Fatal("quantiles not monotone")
	}

	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	var zeros Histogram
	zeros.Observe(0, 0)
	zeros.Observe(1, 0)
	if q := zeros.Snapshot().Quantile(0.99); q != 0 {
		t.Fatalf("all-zero histogram p99 = %d, want 0", q)
	}
	// Clamping: out-of-range q must not panic and stay in range.
	if s.Quantile(-1) > s.Quantile(2) {
		t.Fatal("clamped quantiles out of order")
	}
}

func TestSnapshotQuantilesOnVars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("worker_time_ns")
	for i := 0; i < 10; i++ {
		h.Observe(i, 1000)
	}
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Histograms map[string]struct {
			P50 uint64 `json:"p50"`
			P95 uint64 `json:"p95"`
			P99 uint64 `json:"p99"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	got := decoded.Histograms["worker_time_ns"]
	if got.P50 == 0 || got.P95 == 0 || got.P99 == 0 {
		t.Fatalf("expected nonzero quantiles in /vars JSON, got %+v", got)
	}
}

func TestSnapshotPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine_matches_total").Add(0, 42)
	r.Gauge("run_last_cost").Set(1.5)
	r.Histogram("mine_ns").Observe(0, 100)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE engine_matches_total counter",
		"engine_matches_total 42",
		"# TYPE run_last_cost gauge",
		"run_last_cost 1.5",
		"# TYPE mine_ns histogram",
		`mine_ns_bucket{le="+Inf"} 1`,
		"mine_ns_sum 100",
		"mine_ns_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, text)
		}
	}
}

func TestHTTPEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("engine_matches_total").Add(0, 7)
	ln, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := "http://" + ln.Addr().String()

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/vars")), &snap); err != nil {
		t.Fatalf("/vars not JSON: %v", err)
	}
	if snap.Counters["engine_matches_total"] != 7 {
		t.Fatalf("/vars counter = %d, want 7", snap.Counters["engine_matches_total"])
	}
	if !strings.Contains(get("/metrics"), "engine_matches_total 7") {
		t.Fatal("/metrics missing counter")
	}
	if !strings.Contains(get("/debug/pprof/"), "profile") {
		t.Fatal("/debug/pprof/ index missing")
	}
}

func TestProgressReporting(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("progress_total")
	var buf bytes.Buffer
	c.Add(0, 7) // counted before reporting starts: not this run's
	p := StartProgress(&buf, "mine p1", c)
	c.Add(0, 100)
	time.Sleep(progressPeriod * 3 / 2) // one tick
	p.Stop()
	p.Stop() // idempotent
	out := buf.String()
	// Periodic lines overwritten in place, then the final one.
	if n := strings.Count(out, "mine p1: 100 matches"); n < 2 {
		t.Fatalf("want a periodic and a final line, got %d in %q", n, out)
	}
	if !strings.HasSuffix(out, "\n") || strings.Count(out, "\n") != 1 {
		t.Fatalf("only the final line ends in a newline: %q", out)
	}
	if strings.Contains(out, "%") || strings.Contains(out, "ETA") {
		t.Fatalf("progress reports a rate only: %q", out)
	}
	// Nil sinks are inert.
	StartProgress(nil, "x", c).Stop()
	StartProgress(&buf, "x", nil).Stop()
	var np *Progress
	np.Stop()
}

func TestObserverOrAndDefault(t *testing.T) {
	if Or(nil) != Default() {
		t.Fatal("Or(nil) is not the default observer")
	}
	custom := &Observer{Metrics: NewRegistry()}
	if Or(custom) != custom {
		t.Fatal("Or(custom) did not pass through")
	}
	if Default().Metrics == nil {
		t.Fatal("default observer has no registry")
	}
}
