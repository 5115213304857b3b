package enginetest

import (
	"context"
	"testing"

	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/obs"
	"morphing/internal/pattern"
	"morphing/internal/plan"
)

// TestBacktrackInstrumentedStatsRace runs the instrumented backtracking
// executor on several threads and checks the merged counters against a
// single-threaded reference. Under `go test -race` this exercises the
// whole observability path — per-worker private Stats merged once after
// join (the single-merger invariant), plus the live-matches counter the
// workers add to concurrently — and the equality check proves merging
// neither drops nor double-counts. Everything compared is deterministic work
// (timings are excluded: they legitimately vary with thread count).
func TestBacktrackInstrumentedStatsRace(t *testing.T) {
	g, err := dataset.ErdosRenyi(120, 9, 0, 77)
	if err != nil {
		t.Fatal(err)
	}
	patterns := []*pattern.Pattern{
		pattern.Triangle(),
		pattern.FourCycle(),
		pattern.TailedTriangle(),
	}
	for _, p := range patterns {
		pl, err := plan.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		refObs := &obs.Observer{Metrics: obs.NewRegistry()}
		wantCount, wantStats, err := engine.BacktrackCtx(context.Background(), g, pl, nil,
			engine.ExecOptions{Threads: 1, Instrument: true}, refObs)
		if err != nil {
			t.Fatal(err)
		}

		o := &obs.Observer{Metrics: obs.NewRegistry()}
		gotCount, gotStats, err := engine.BacktrackCtx(context.Background(), g, pl, nil,
			engine.ExecOptions{Threads: 8, Instrument: true}, o)
		if err != nil {
			t.Fatal(err)
		}

		if gotCount != wantCount {
			t.Errorf("%v: count %d, want %d", p, gotCount, wantCount)
		}
		type pair struct {
			name      string
			got, want uint64
		}
		for _, c := range []pair{
			{"Matches", gotStats.Matches, wantStats.Matches},
			{"SetOps", gotStats.SetOps, wantStats.SetOps},
			{"SetElems", gotStats.SetElems, wantStats.SetElems},
			{"Materialized", gotStats.Materialized, wantStats.Materialized},
			{"UDFCalls", gotStats.UDFCalls, wantStats.UDFCalls},
			{"Branches", gotStats.Branches, wantStats.Branches},
		} {
			if c.got != c.want {
				t.Errorf("%v: merged %s = %d, single-threaded reference %d", p, c.name, c.got, c.want)
			}
		}
		snap := o.Metrics.Snapshot()
		if got := snap.Counters[engine.MetricMatches]; got != wantCount {
			t.Errorf("%v: registry %s = %d, want %d", p, engine.MetricMatches, got, wantCount)
		}
		if got := snap.Counters[engine.MetricSetOps]; got != wantStats.SetOps {
			t.Errorf("%v: registry %s = %d, want %d", p, engine.MetricSetOps, got, wantStats.SetOps)
		}
	}
}

// TestStatsCloneDecouples verifies Clone produces an independent copy:
// mutating the original must not show through the snapshot.
func TestStatsCloneDecouples(t *testing.T) {
	st := &engine.Stats{Matches: 7, SetOps: 3}
	cp := st.Clone()
	st.Matches = 100
	if cp.Matches != 7 || cp.SetOps != 3 {
		t.Fatalf("clone aliased the original: %+v", cp)
	}
	var nilStats *engine.Stats
	if nilStats.Clone() != nil {
		t.Fatal("nil Clone should be nil")
	}
}
