package enginetest

import (
	"context"
	"sync"

	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/refmatch"
)

// The one non-test file of the package: an engine stub the tests of other
// packages share.

// WideEngine emits the oracle's matches from Workers goroutines that are
// all live at once, each under a worker ID of its own — what engine.Visitor
// allows any engine to do. Sinks that fold worker IDs into a fixed
// shard count let two of them write one shard, which -race reports. It
// needs a plain *graph.Graph, and cannot stop mid-run: each operation
// reports the context's state before it starts and after it finishes.
type WideEngine struct{ Workers int }

func (WideEngine) Name() string                         { return "wide" }
func (WideEngine) SupportsInduced(pattern.Induced) bool { return true }

func (WideEngine) CountCtx(ctx context.Context, g graph.Adjacency, p *pattern.Pattern) (uint64, *engine.Stats, error) {
	if err := engine.CtxErr(ctx); err != nil {
		return 0, nil, err
	}
	return refmatch.Count(g.(*graph.Graph), p), &engine.Stats{}, engine.CtxErr(ctx)
}

func (e WideEngine) CountAllCtx(ctx context.Context, g graph.Adjacency, ps []*pattern.Pattern) ([]uint64, *engine.Stats, error) {
	if err := engine.CtxErr(ctx); err != nil {
		return nil, nil, err
	}
	out := make([]uint64, len(ps))
	for i, p := range ps {
		out[i] = refmatch.Count(g.(*graph.Graph), p)
	}
	return out, &engine.Stats{}, engine.CtxErr(ctx)
}

func (e WideEngine) MatchCtx(ctx context.Context, g graph.Adjacency, p *pattern.Pattern, visit engine.Visitor) (*engine.Stats, error) {
	if err := engine.CtxErr(ctx); err != nil {
		return nil, err
	}
	ms := refmatch.Matches(g.(*graph.Graph), p)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < e.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			buf := make([]uint32, p.N())
			for i := w; i < len(ms); i += e.Workers {
				copy(buf, ms[i])
				visit(w, buf)
			}
		}(w)
	}
	close(start)
	wg.Wait()
	return &engine.Stats{Matches: uint64(len(ms))}, engine.CtxErr(ctx)
}
