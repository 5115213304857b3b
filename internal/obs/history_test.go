package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestHistorySampling exercises the derived-series contract: counters
// yield a cumulative and a rate series, gauges a last-value series, and
// histograms windowed quantiles computed from consecutive-snapshot
// deltas rather than cumulative buckets.
func TestHistorySampling(t *testing.T) {
	reg := NewRegistry()
	h := NewHistory(reg, HistoryConfig{
		Interval:   time.Second,
		Capacity:   8,
		Counters:   []string{"q_total"},
		Gauges:     []string{"depth"},
		Histograms: []string{"lat_ns"},
	})

	c := reg.Counter("q_total")
	g := reg.Gauge("depth")
	lat := reg.Histogram("lat_ns")

	// Interval 1: slow observations only.
	c.Add(0, 10)
	g.Set(3)
	for i := 0; i < 100; i++ {
		lat.Observe(0, 1<<20) // ~1ms
	}
	h.SampleNow()

	// Interval 2: fast observations only. A cumulative-bucket quantile
	// would still report ~1ms (100 old vs 50 new observations dominate);
	// the windowed quantile must drop to the fast range.
	c.Add(0, 5)
	g.Set(7)
	for i := 0; i < 50; i++ {
		lat.Observe(0, 1<<10) // ~1us
	}
	h.SampleNow()

	pts := h.Series("q_total")
	if len(pts) != 2 || pts[0].Value != 10 || pts[1].Value != 15 {
		t.Fatalf("counter series = %+v, want cumulative [10 15]", pts)
	}
	if rp := h.Series("q_total:rate"); len(rp) != 2 || rp[0].Value <= 0 || rp[1].Value <= 0 {
		t.Fatalf("rate series = %+v, want two positive points", rp)
	}
	if gp := h.Series("depth"); len(gp) != 2 || gp[0].Value != 3 || gp[1].Value != 7 {
		t.Fatalf("gauge series = %+v, want [3 7]", gp)
	}
	p99 := h.Series("lat_ns:p99")
	if len(p99) != 2 {
		t.Fatalf("p99 series has %d points, want 2", len(p99))
	}
	if p99[0].Value < float64(1<<19) {
		t.Fatalf("interval-1 p99 = %g, want ~2^20", p99[0].Value)
	}
	if p99[1].Value > float64(1<<12) {
		t.Fatalf("interval-2 p99 = %g, want ~2^10 (windowed, not cumulative)", p99[1].Value)
	}
	if len(h.Series("lat_ns:rate")) == 0 {
		t.Fatal("missing lat_ns:rate series")
	}
	if h.Series("nonexistent") != nil {
		t.Fatal("unknown series should return nil")
	}
}

// TestHistoryBaseline verifies the construction-time baseline: activity
// before NewHistory must not leak into the first recorded point's rate
// or quantiles.
func TestHistoryBaseline(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("warm_total").Add(0, 1000)
	for i := 0; i < 10; i++ {
		reg.Histogram("warm_ns").Observe(0, 1<<30)
	}
	h := NewHistory(reg, HistoryConfig{
		Counters:   []string{"warm_total"},
		Histograms: []string{"warm_ns"},
	})
	h.SampleNow()
	if rp := h.Series("warm_total:rate"); rp[0].Value != 0 {
		t.Fatalf("first rate point = %g, want 0 (pre-baseline adds excluded)", rp[0].Value)
	}
	if qp := h.Series("warm_ns:p99"); qp[0].Value != 0 {
		t.Fatalf("first p99 point = %g, want 0 (pre-baseline observations excluded)", qp[0].Value)
	}
	if vp := h.Series("warm_total"); vp[0].Value != 1000 {
		t.Fatalf("cumulative point = %g, want 1000", vp[0].Value)
	}
}

// TestHistoryRingBound verifies retention: series never exceed Capacity
// points and keep the newest.
func TestHistoryRingBound(t *testing.T) {
	reg := NewRegistry()
	h := NewHistory(reg, HistoryConfig{Capacity: 4, Gauges: []string{"g"}})
	g := reg.Gauge("g")
	for i := 1; i <= 11; i++ {
		g.Set(float64(i))
		h.SampleNow()
	}
	pts := h.Series("g")
	if len(pts) != 4 {
		t.Fatalf("window has %d points, want 4", len(pts))
	}
	for i, p := range pts {
		if want := float64(8 + i); p.Value != want {
			t.Fatalf("window[%d] = %g, want %g", i, p.Value, want)
		}
	}
	snap := h.Snapshot(2)
	if got := snap.Series["g"]; len(got) != 2 || got[1].Value != 11 {
		t.Fatalf("limited snapshot = %+v, want newest 2 points ending at 11", got)
	}
}

// TestHistoryConcurrentReaders hammers Snapshot/Series from readers while
// the writer samples — run under -race this proves the published-window
// scheme is sound.
func TestHistoryConcurrentReaders(t *testing.T) {
	reg := NewRegistry()
	h := NewHistory(reg, HistoryConfig{
		Capacity: 8,
		Counters: []string{"c"},
		Gauges:   []string{"g"},
	})
	c := reg.Counter("c")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range h.Series("c") {
					if p.TimeNS == 0 {
						t.Error("zero timestamp in published point")
						return
					}
				}
				h.Snapshot(0)
			}
		}()
	}
	for i := 0; i < 500; i++ {
		c.Inc(0)
		h.SampleNow()
	}
	close(stop)
	wg.Wait()
}

// TestFlightDumpEmbedsHistory asserts that an anomalous run's dump
// bundle carries the recent time-series context (history.json), capped
// to historySamples points per series.
func TestFlightDumpEmbedsHistory(t *testing.T) {
	reg := NewRegistry()
	h := NewHistory(reg, HistoryConfig{Capacity: 2 * historySamples, Counters: []string{"c"}})
	c := reg.Counter("c")
	for i := 0; i < historySamples+10; i++ {
		c.Inc(0)
		h.SampleNow()
	}

	dir := t.TempDir()
	rc := StartRun(&Observer{Metrics: reg}, "probe", FlightPolicy{Dir: dir, History: h})
	dump := rc.Finish(RunOutcome{ErrKind: "error", Err: "boom"})
	if dump == "" {
		t.Fatal("anomalous run produced no dump")
	}
	want := []string{"events.jsonl", "history.json", "meta.json"}
	if got := bundleFiles(t, dump); !slices.Equal(got, want) {
		t.Fatalf("bundle holds %v, want %v", got, want)
	}
	raw, err := os.ReadFile(filepath.Join(dump, "history.json"))
	if err != nil {
		t.Fatalf("dump missing history.json: %v", err)
	}
	var snap HistorySnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("history.json not valid JSON: %v", err)
	}
	pts := snap.Series["c"]
	if len(pts) != historySamples {
		t.Fatalf("embedded %d points, want %d", len(pts), historySamples)
	}
	if last := pts[len(pts)-1].Value; last != historySamples+10 {
		t.Fatalf("newest embedded point = %g, want %d", last, historySamples+10)
	}
}

// TestHistoryStopLeakFree asserts the sampler goroutine exits on Stop —
// including Stop without Start, double Stop, and Stop racing the ticker.
func TestHistoryStopLeakFree(t *testing.T) {
	base := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		reg := NewRegistry()
		h := NewHistory(reg, HistoryConfig{
			Interval: time.Millisecond,
			Counters: []string{"c"},
		})
		h.Start()
		if i%2 == 0 {
			time.Sleep(3 * time.Millisecond) // let ticks fire
		}
		h.Stop()
		h.Stop() // idempotent
	}
	// Stop without Start must not hang or leak.
	h := NewHistory(NewRegistry(), HistoryConfig{})
	h.Stop()

	waitForGoroutines(t, base, "obs.History")
}
