package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"morphing/internal/obs"
)

// sloObs builds the observation vector for a query that passed through
// every phase with the given total latency (phases split arbitrarily).
func sloObs(total time.Duration) ([sloPhases]time.Duration, [sloPhases]bool) {
	var d [sloPhases]time.Duration
	d[sloAdmit] = total / 10
	d[sloQueue] = total / 10
	d[sloMine] = total - d[sloAdmit] - d[sloQueue]
	d[sloTotal] = total
	return d, [sloPhases]bool{true, true, true, true}
}

// TestSLOBurnRate feeds a synthetic latency trace that crosses the
// objective and checks the burn-rate arithmetic: with a 99% goal (1%
// budget), 10 bad out of 110 queries burns at ~9x budget; once the
// window slides past the trace, the burn returns to zero.
func TestSLOBurnRate(t *testing.T) {
	tr := newSLOTracker(SLOConfig{
		Window:           10 * time.Second,
		Buckets:          10,
		LatencyObjective: 100 * time.Millisecond,
		LatencyGoal:      0.99,
		ErrorGoal:        0.01,
	})
	base := time.Unix(1000, 0)

	// Before any traffic: a zero scorecard, not NaN.
	if st := tr.Status(base); st.BurnRate != 0 || st.Total != 0 {
		t.Fatalf("empty tracker status %+v, want zeros", st)
	}

	for i := 0; i < 100; i++ {
		d, valid := sloObs(10 * time.Millisecond)
		tr.observe(base, "tenant-a", d, valid, false)
	}
	for i := 0; i < 10; i++ {
		d, valid := sloObs(500 * time.Millisecond)
		tr.observe(base, "tenant-a", d, valid, false)
	}

	st := tr.Status(base)
	if st.Total != 110 {
		t.Fatalf("total = %d, want 110", st.Total)
	}
	// over_fraction = 10/110 ≈ 0.0909; burn = 0.0909 / 0.01 ≈ 9.09.
	tot := st.Phases["total"]
	if tot.Over != 10 {
		t.Fatalf("total-phase over = %d, want 10", tot.Over)
	}
	if st.BurnRate < 8.5 || st.BurnRate > 9.5 {
		t.Fatalf("burn rate = %v, want ~9.09", st.BurnRate)
	}
	if st.ErrorBurnRate != 0 {
		t.Fatalf("error burn = %v with no failures", st.ErrorBurnRate)
	}
	// The slow observations were all mine-phase: mine burns, queue does
	// not (its observations are 50ms < 100ms objective).
	if st.Phases["mine"].BurnRate <= 0 {
		t.Fatal("mine phase shows no burn despite slow mining")
	}
	if st.Phases["queue"].BurnRate != 0 {
		t.Fatalf("queue phase burn = %v, want 0", st.Phases["queue"].BurnRate)
	}
	if tn, ok := st.Tenants["tenant-a"]; !ok || tn.LatencyBurnRate < 8.5 {
		t.Fatalf("tenant scorecard %+v, want latency burn ~9", tn)
	}

	// Slide the window past the trace: burn decays back to zero.
	if st := tr.Status(base.Add(11 * time.Second)); st.BurnRate != 0 || st.Total != 0 {
		t.Fatalf("status after window slid %+v, want zeros", st)
	}

	// Error-budget burn: 2 failures in 100 at a 1% goal burns at 2x.
	later := base.Add(20 * time.Second)
	for i := 0; i < 100; i++ {
		d, valid := sloObs(10 * time.Millisecond)
		tr.observe(later, "tenant-a", d, valid, i < 2)
	}
	st = tr.Status(later)
	if st.Errors != 2 {
		t.Fatalf("errors = %d, want 2", st.Errors)
	}
	if st.ErrorBurnRate < 1.9 || st.ErrorBurnRate > 2.1 {
		t.Fatalf("error burn = %v, want ~2.0", st.ErrorBurnRate)
	}
	if st.BurnRate != st.ErrorBurnRate {
		t.Fatalf("headline burn %v should be the error burn %v (latency is clean)", st.BurnRate, st.ErrorBurnRate)
	}
}

// TestSLOTenantOverflow verifies the per-tenant cap: tenants beyond
// MaxTenants aggregate under the overflow bucket instead of growing the
// map without bound.
func TestSLOTenantOverflow(t *testing.T) {
	tr := newSLOTracker(SLOConfig{MaxTenants: 2})
	base := time.Unix(1000, 0)
	d, valid := sloObs(time.Millisecond)
	for _, tenant := range []string{"a", "b", "c", "d", "e"} {
		tr.observe(base, tenant, d, valid, false)
	}
	st := tr.Status(base)
	if len(st.Tenants) != 3 {
		t.Fatalf("tenant map %v, want a, b and %s", st.Tenants, sloOverflowTenant)
	}
	if ov := st.Tenants[sloOverflowTenant]; ov.Total != 3 {
		t.Fatalf("overflow tenant total = %d, want 3 (c, d, e)", ov.Total)
	}
	if st.Total != 5 {
		t.Fatalf("global total = %d, want 5", st.Total)
	}
}

// TestSLOBucketAging verifies ring-bucket reuse: an observation landing
// a full window later resets the stale bucket rather than double
// counting into it.
func TestSLOBucketAging(t *testing.T) {
	tr := newSLOTracker(SLOConfig{Window: 10 * time.Second, Buckets: 10})
	base := time.Unix(1000, 0)
	d, valid := sloObs(time.Millisecond)
	tr.observe(base, "a", d, valid, false)
	// Exactly one window later this lands on the same ring slot.
	tr.observe(base.Add(10*time.Second), "a", d, valid, false)
	if st := tr.Status(base.Add(10 * time.Second)); st.Total != 1 {
		t.Fatalf("total = %d after bucket wrap, want 1 (old slice aged out)", st.Total)
	}
}

// TestSLOAndTimeseriesEndpoints drives real queries through the HTTP
// surface and checks the new observability endpoints: /slo serves a
// scorecard that saw the traffic, /timeseries serves non-empty ring
// buffers for the phase histograms and query counters.
func TestSLOAndTimeseriesEndpoints(t *testing.T) {
	s := newTestServer(t, Config{
		MaxInFlight: 2,
		// A tight objective so the test can assert burn > 0: every query
		// is "slow" relative to 1ns.
		SLO: SLOConfig{LatencyObjective: time.Nanosecond},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := &Client{Base: ts.URL}
	for i := 0; i < 3; i++ {
		if _, err := c.Query(t.Context(), QueryRequest{Patterns: []string{"triangle"}, NoCache: true}); err != nil {
			t.Fatal(err)
		}
	}
	s.hist.SampleNow() // deterministic: don't wait for the 1s tick

	var slo SLOStatus
	resp, err := http.Get(ts.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&slo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if slo.Total < 3 {
		t.Fatalf("/slo total = %d, want >= 3", slo.Total)
	}
	if got := slo.Phases["mine"].Count; got < 3 {
		t.Fatalf("/slo mine phase count = %d, want >= 3", got)
	}
	if slo.BurnRate <= 0 {
		t.Fatalf("/slo burn rate = %v, want > 0 under a 1ns objective", slo.BurnRate)
	}
	if slo.ErrorBurnRate != 0 {
		t.Fatalf("/slo error burn = %v, want 0 (all queries succeeded)", slo.ErrorBurnRate)
	}

	var series obs.HistorySnapshot
	resp, err = http.Get(ts.URL + "/timeseries?n=5")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&series); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(series.Series) == 0 {
		t.Fatal("/timeseries served no series")
	}
	qps := series.Series[MetricQueries]
	if len(qps) == 0 {
		t.Fatalf("/timeseries has no %s series; got keys %d", MetricQueries, len(series.Series))
	}
	if got := qps[len(qps)-1].Value; got < 3 {
		t.Fatalf("%s last sample = %v, want >= 3", MetricQueries, got)
	}
	if _, ok := series.Series[MetricPhaseTotalNS+":p99"]; !ok {
		t.Fatalf("no windowed quantile series for %s", MetricPhaseTotalNS)
	}
}

// TestSLORecordsRejections verifies the terminal-outcome taxonomy:
// load-shed rejections spend the availability budget, client mistakes
// (bad_request) do not.
func TestSLORecordsRejections(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1})

	// Client error: unparsable pattern.
	if _, qerr := s.Submit(t.Context(), &QueryRequest{Patterns: []string{"no-such-pattern!!"}}, "cli", nil); qerr == nil || qerr.Code != CodeBadRequest {
		t.Fatalf("bad pattern: %+v, want bad_request", qerr)
	}
	st := s.slo.Status(time.Now())
	if st.Total != 1 || st.Errors != 0 {
		t.Fatalf("after bad_request: total=%d errors=%d, want 1/0 (client errors spend no budget)", st.Total, st.Errors)
	}
	if counter(s, MetricErrors) != 0 {
		t.Fatal("bad_request incremented the error counter")
	}

	// Server-side failure: quota exhausted counts against availability.
	locked(s, func() {
		s.cfg.PerClientInFlight = 1
		s.clients["greedy"] = 1
	})
	if _, qerr := s.Submit(t.Context(), &QueryRequest{Patterns: []string{"triangle"}}, "greedy", nil); qerr == nil || qerr.Code != CodeQuotaExhausted {
		t.Fatalf("quota: %+v, want quota_exhausted", qerr)
	}
	st = s.slo.Status(time.Now())
	if st.Total != 2 || st.Errors != 1 {
		t.Fatalf("after quota reject: total=%d errors=%d, want 2/1", st.Total, st.Errors)
	}
	if counter(s, MetricErrors) != 1 {
		t.Fatalf("error counter = %d, want 1", counter(s, MetricErrors))
	}
	locked(s, func() {
		delete(s.clients, "greedy")
		s.cfg.PerClientInFlight = 0
	})
}

// TestHistoryLifecycleWithDrain verifies the sampler goroutine dies
// with the server (no leak across New + Drain) and that a negative
// SampleInterval disables sampling entirely.
func TestHistoryLifecycleWithDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := New(chordRing(16), Config{
		MaxInFlight: 1,
		Obs:         &obs.Observer{Metrics: obs.NewRegistry()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.History() == nil {
		t.Fatal("default config should run a History sampler")
	}
	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, base, "server History sampler")

	s2, err := New(chordRing(16), Config{
		MaxInFlight:    1,
		SampleInterval: -1,
		Obs:            &obs.Observer{Metrics: obs.NewRegistry()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(t.Context())
	if s2.History() != nil {
		t.Fatal("negative SampleInterval must disable the sampler")
	}
	// The endpoint must still answer, gracefully.
	rec := httptest.NewRecorder()
	s2.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/timeseries", nil))
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("disabled /timeseries body %q: %v", rec.Body.String(), err)
	}
	if body["disabled"] != true {
		t.Fatalf("disabled /timeseries body %v, want disabled marker", body)
	}
}
