package core_test

import (
	"context"
	"runtime"
	"testing"

	"morphing/internal/core"
	"morphing/internal/dataset"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// TestCountQueryBytesBound: one triangle count through CountsCtx on
// MI x0.003 allocates under 64 KiB, run scope and telemetry included. A
// run's metrics live once, in the process registry, so a query pays for
// its own run ID, event ring and span ring and nothing per metric.
func TestCountQueryBytesBound(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's shadow allocations are not the query's")
	}
	g, err := dataset.MiCo().Scaled(0.003).Generate()
	if err != nil {
		t.Fatal(err)
	}
	r := &core.Runner{Engine: peregrine.New(2)}
	queries := []*pattern.Pattern{pattern.Triangle()}
	run := func() {
		if _, _, err := r.CountsCtx(context.Background(), g, queries); err != nil {
			t.Fatal(err)
		}
	}
	run() // the first query builds what every later one shares: plans, hub rows
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	if per >= 64<<10 {
		t.Fatalf("one triangle count allocates %.1f KiB, bound 64 KiB", float64(per)/1024)
	}
	t.Logf("%.1f KiB per triangle count", float64(per)/1024)
}
