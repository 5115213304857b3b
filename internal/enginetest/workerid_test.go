package enginetest

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"morphing/internal/autozero"
	"morphing/internal/bigjoin"
	"morphing/internal/core"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graphpi"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// TestVisitorWorkerIDsBelowThreads pins the worker-ID contract of
// engine.Visitor: a pass numbers its workers [0, ExecOptions.ThreadCount())
// of the engine's ExecConfig, and hands its consumers those IDs only. For
// each engine at Threads 1, 3 and 0 (GOMAXPROCS) it runs three paths:
// counting through the Filter UDF of CountVertexInducedViaFilterCtx,
// Runner.StreamCtx's visitors and Runner.MNITablesCtx's window sinks (Bind;
// MNI needs native vertex-induced matching, which GraphPi and BigJoin
// lack). Every pass reports ThreadCount workers in Stats.Workers, each
// under its ID, and every ID the stream's visitors are called with is
// below ThreadCount too.
func TestVisitorWorkerIDsBelowThreads(t *testing.T) {
	g, err := dataset.ErdosRenyi(200, 8, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*pattern.Pattern{pattern.FourCycle(), pattern.TailedTriangle()}
	engines := []func(int) engine.Engine{
		func(n int) engine.Engine { return peregrine.New(n) },
		func(n int) engine.Engine { return autozero.New(n) },
		func(n int) engine.Engine { return graphpi.New(n) },
		func(n int) engine.Engine { return bigjoin.New(n) },
	}
	for _, mk := range engines {
		for _, threads := range []int{1, 3, 0} {
			e := mk(threads)
			opts, _ := e.ExecConfig()
			limit := opts.ThreadCount()
			name := fmt.Sprintf("%s/threads=%d", e.Name(), threads)
			workers := func(path string, st *engine.Stats) {
				t.Helper()
				if len(st.Workers) != limit*int(st.TriePasses) {
					t.Errorf("%s %s: %d worker rows for %d passes of %d workers", name, path, len(st.Workers), st.TriePasses, limit)
				}
				for _, w := range st.Workers {
					if w.Worker < 0 || w.Worker >= limit {
						t.Errorf("%s %s: worker ID %d outside [0, %d)", name, path, w.Worker, limit)
					}
				}
			}

			_, st, err := engine.CountVertexInducedViaFilterCtx(context.Background(), e, g, pattern.FourCycle().AsVertexInduced())
			if err != nil {
				t.Fatalf("%s filter: %v", name, err)
			}
			workers("filter", st)

			var mu sync.Mutex
			seen := map[int]bool{}
			r := &core.Runner{Engine: e, DisableMorphing: !e.SupportsInduced(pattern.VertexInduced)}
			rs, err := r.StreamCtx(context.Background(), g, queries, func([]core.StreamTarget) engine.Visitor {
				return func(worker int, _ []uint32) {
					mu.Lock()
					seen[worker] = true
					mu.Unlock()
				}
			})
			if err != nil {
				t.Fatalf("%s stream: %v", name, err)
			}
			workers("stream", rs.Mining)
			if len(seen) == 0 {
				t.Errorf("%s stream: no visitor call", name)
			}
			for worker := range seen {
				if worker < 0 || worker >= limit {
					t.Errorf("%s stream: visitor called with worker ID %d outside [0, %d)", name, worker, limit)
				}
			}

			if !e.SupportsInduced(pattern.VertexInduced) {
				continue
			}
			_, rs, err = r.MNITablesCtx(context.Background(), g, queries)
			if err != nil {
				t.Fatalf("%s mni: %v", name, err)
			}
			workers("mni", rs.Mining)
		}
	}
}
