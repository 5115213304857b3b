package core

import (
	"bytes"
	"context"
	"testing"

	"morphing/internal/graph"
	"morphing/internal/pattern"
)

// TestStorageAttribution verifies per-query storage-tier attribution:
// a run over the compressed tier stamps its own decode counters into
// RunStats, publishes them into the run's metric scope (forwarded to
// the runner's registry), and logs a "storage" lifecycle event — while
// a plain-CSR run carries no storage section at all.
func TestStorageAttribution(t *testing.T) {
	var ql bytes.Buffer
	r, _ := lifecycleRunner(t, &ql)
	g := lifecycleGraph(t)
	c, err := graph.Compress(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*pattern.Pattern{pattern.Triangle().AsVertexInduced()}

	_, st, err := r.CountsCtx(context.Background(), c, queries)
	if err != nil {
		t.Fatal(err)
	}
	if st.Decode == nil {
		t.Fatal("compressed-tier run has no decode attribution")
	}
	if st.Decode.Rows == 0 || st.Decode.Elems == 0 {
		t.Fatalf("decode attribution empty: %+v", *st.Decode)
	}
	if st.Residency != nil {
		t.Fatalf("heap-backed graph sampled residency: %+v", *st.Residency)
	}
	if got := r.Obs.Metrics.Counter(MetricDecodeRows).Value(); got != st.Decode.Rows {
		t.Fatalf("registry decode rows = %d, want %d (run scope must forward)", got, st.Decode.Rows)
	}
	var sawStorage bool
	for _, e := range st.Events {
		sawStorage = sawStorage || e.Name == "storage"
	}
	if !sawStorage {
		t.Fatalf("no storage event in run lifecycle: %v", eventNames(st.Events))
	}

	// A second run's attribution is its own work, not cumulative (same
	// query => same magnitude), and exactly what it added to the registry:
	// the per-run sink is the one decode ledger.
	rows := r.Obs.Metrics.Counter(MetricDecodeRows)
	before := rows.Value()
	_, st2, err := r.CountsCtx(context.Background(), c, queries)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Decode.Rows > 2*st.Decode.Rows {
		t.Fatalf("second run attributed %d rows vs first %d: looks cumulative", st2.Decode.Rows, st.Decode.Rows)
	}
	if delta := rows.Value() - before; delta != st2.Decode.Rows {
		t.Fatalf("second run moved %s by %d, its RunStats.Decode.Rows is %d", MetricDecodeRows, delta, st2.Decode.Rows)
	}

	// Plain CSR: no decode work, no storage section.
	_, stPlain, err := r.CountsCtx(context.Background(), g, queries)
	if err != nil {
		t.Fatal(err)
	}
	if stPlain.Decode != nil {
		t.Fatalf("plain-CSR run has decode attribution: %+v", *stPlain.Decode)
	}
}
