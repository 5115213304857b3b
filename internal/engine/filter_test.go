package engine

import (
	"context"
	"sync"
	"testing"

	"morphing/internal/dataset"
	"morphing/internal/pattern"
	"morphing/internal/refmatch"
)

// emitWide streams ms to sink the way a pass of that many workers does:
// it binds the sink once per worker ID, in order, on its own goroutine,
// then runs the workers all at once, each handing its share of ms to its
// Window as one-match windows.
func emitWide(ms [][]uint32, workers int, sink Sink) {
	windows := make([]Window, workers)
	for w := range windows {
		windows[w] = sink(w)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := w; i < len(ms); i += workers {
				m := append([]uint32(nil), ms[i]...)
				windows[w](m, len(m)-1, m[len(m)-1:])
			}
		}(w)
	}
	close(start)
	wg.Wait()
}

// TestCountViaEdgeFilterUnderManyWorkerIDs drives the extra-edge Filter
// UDF behind GraphPi's and BigJoin's vertex-induced baselines from 600
// concurrent worker IDs. The hand-rolled shard arrays it replaces folded
// IDs modulo the thread count and lost counts (a data race under -race).
func TestCountViaEdgeFilterUnderManyWorkerIDs(t *testing.T) {
	g, err := dataset.ErdosRenyi(80, 10, 0, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*pattern.Pattern{pattern.Wedge(), pattern.FourCycle(), pattern.TailedTriangle()} {
		ms := refmatch.Matches(g, p.AsEdgeInduced())
		got, st, err := CountViaEdgeFilter(context.Background(), g, p.NonEdges(), nil, func(sink Sink) (*Stats, error) {
			emitWide(ms, 600, sink)
			return &Stats{Matches: uint64(len(ms))}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := refmatch.Count(g, p.AsVertexInduced()); got != want || st.Matches != want {
			t.Errorf("%v: filter kept %d (stats %d), oracle %d of %d edge-induced matches", p, got, st.Matches, want, len(ms))
		}
		if st.Branches == 0 {
			t.Errorf("%v: no filter branches recorded", p)
		}
	}
}
