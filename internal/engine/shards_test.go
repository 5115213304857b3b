package engine

import (
	"context"
	"sync"
	"testing"

	"morphing/internal/dataset"
	"morphing/internal/pattern"
	"morphing/internal/refmatch"
)

// emitWide streams ms to visit from workers goroutines that are all live
// at once, each under a worker ID of its own — what a pass of that many
// workers hands its Visitor.
func emitWide(ms [][]uint32, workers int, visit Visitor) {
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := w; i < len(ms); i += workers {
				visit(w, append([]uint32(nil), ms[i]...))
			}
		}(w)
	}
	close(start)
	wg.Wait()
}

// TestShardsOwnOneShardPerWorkerID (run it with -race): 600 concurrent
// worker IDs each get a shard of their own and no increment is lost.
func TestShardsOwnOneShardPerWorkerID(t *testing.T) {
	const workers, perWorker = 600, 200
	var shards Shards[uint64]
	ms := make([][]uint32, workers*perWorker)
	emitWide(ms, workers, func(worker int, _ []uint32) { *shards.For(worker)++ })
	var n, total uint64
	shards.Each(func(c *uint64) {
		n++
		total += *c
	})
	if n != workers || total != workers*perWorker {
		t.Fatalf("%d shards holding %d increments, want %d and %d", n, total, workers, workers*perWorker)
	}
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
		got, st, err := CountViaEdgeFilter(context.Background(), g, p.NonEdges(), nil, func(visit Visitor) (*Stats, error) {
			emitWide(ms, 600, visit)
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
