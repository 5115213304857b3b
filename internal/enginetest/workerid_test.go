package enginetest

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
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
// Runner.StreamCtx's visitors (EachMatch) and Runner.MNITablesCtx's
// window sinks (MNI needs native vertex-induced matching, which GraphPi
// and BigJoin lack). Every pass reports ThreadCount workers in Stats.Workers, each
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
			rs, err := r.StreamCtx(context.Background(), g, queries, func([]core.StreamTarget) engine.Sink {
				return engine.EachMatch(func(worker int, _ []uint32) {
					mu.Lock()
					seen[worker] = true
					mu.Unlock()
				})
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

// bindProbe hands out sinks that check the engine.Sink contract across
// one pass: every sink is called once for each of the pass's workers, with
// IDs 0..threads-1 in order, on the caller's goroutine — calls is a plain
// counter, so under -race a call from a worker goroutine is a reported
// race —, and every sink call happens before the first Window call.
type bindProbe struct {
	threads int
	ids     [][]int      // per sink, the IDs it was called with
	calls   int          // sink calls, across the pass's sinks
	windows atomic.Int64 // Window calls
	late    atomic.Int64 // sink calls after a window, and windows before the last sink call
}

func (p *bindProbe) sink() engine.Sink {
	i := len(p.ids)
	p.ids = append(p.ids, nil)
	return func(worker int) engine.Window {
		p.calls++
		p.ids[i] = append(p.ids[i], worker)
		if p.windows.Load() != 0 {
			p.late.Add(1)
		}
		return func([]uint32, int, []uint32) {
			if p.windows.Add(1); p.calls != p.threads*len(p.ids) {
				p.late.Add(1)
			}
		}
	}
}

// check fails the test unless the pass kept the contract with at least
// minSinks sinks and delivered a window.
func (p *bindProbe) check(t *testing.T, name string, minSinks int) {
	t.Helper()
	if len(p.ids) < minSinks || p.calls != p.threads*len(p.ids) || p.windows.Load() == 0 || p.late.Load() != 0 {
		t.Errorf("%s: %d sinks, %d sink calls for %d workers, %d windows, %d out of order", name, len(p.ids), p.calls, p.threads, p.windows.Load(), p.late.Load())
	}
	for i, ids := range p.ids {
		for want, id := range ids {
			if id != want {
				t.Errorf("%s: sink %d called with IDs %v, want 0..%d in order", name, i, ids, p.threads-1)
				break
			}
		}
	}
}

// TestBindPrecedesEveryWindow pins the engine.Sink contract on every
// engine at Threads 1, 3 and 600, through each way a consumer reaches the
// executor: MatchTrieCtx over a trie of three plans, BacktrackCtx over one
// plan, and Runner.StreamCtx's sinks (the route MNITablesCtx's per-worker
// tables take too).
func TestBindPrecedesEveryWindow(t *testing.T) {
	g, err := dataset.ErdosRenyi(200, 8, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*pattern.Pattern{pattern.FourCycle(), pattern.TailedTriangle(), pattern.Wedge()}
	engines := []func(int) engine.Engine{
		func(n int) engine.Engine { return peregrine.New(n) },
		func(n int) engine.Engine { return autozero.New(n) },
		func(n int) engine.Engine { return graphpi.New(n) },
		func(n int) engine.Engine { return bigjoin.New(n) },
	}
	for _, mk := range engines {
		for _, threads := range []int{1, 3, 600} {
			e := mk(threads)
			opts, o := e.ExecConfig()
			name := fmt.Sprintf("%s/threads=%d", e.Name(), threads)
			probe := func() *bindProbe { return &bindProbe{threads: opts.ThreadCount()} }

			tr, err := engine.BuildTrie(e, g, queries)
			if err != nil {
				t.Fatal(err)
			}
			p := probe()
			sinks := make([]engine.Sink, len(tr.Plans))
			for i := range sinks {
				sinks[i] = p.sink()
			}
			if _, _, err := engine.MatchTrieCtx(context.Background(), g, tr, sinks, opts, o); err != nil {
				t.Fatalf("%s trie: %v", name, err)
			}
			p.check(t, name+" trie", 2)

			pl, err := e.PlanPattern(g, queries[0])
			if err != nil {
				t.Fatal(err)
			}
			p = probe()
			if _, _, err := engine.BacktrackCtx(context.Background(), g, pl, p.sink(), opts, o); err != nil {
				t.Fatalf("%s backtrack: %v", name, err)
			}
			p.check(t, name+" backtrack", 1)

			p = probe()
			r := &core.Runner{Engine: e, DisableMorphing: !e.SupportsInduced(pattern.VertexInduced)}
			if _, err := r.StreamCtx(context.Background(), g, queries[:2], func([]core.StreamTarget) engine.Sink { return p.sink() }); err != nil {
				t.Fatalf("%s stream: %v", name, err)
			}
			p.check(t, name+" stream", 1)
		}
	}
}
