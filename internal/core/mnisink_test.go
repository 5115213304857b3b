package core

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"morphing/internal/aggr"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// yieldingGraph yields the processor on every row read, so the workers of
// a pass take turns from its first blocks on: each of hundreds of workers
// claims blocks while they last, however few processors run them.
type yieldingGraph struct{ *graph.Graph }

func (g yieldingGraph) View() graph.Adjacency { return g }

func (g yieldingGraph) Row(v uint32, buf []uint32) (row, next []uint32) {
	runtime.Gosched()
	return g.Graph.Row(v, buf)
}

// TestMNISinkOwnsOneShardPerWorkerID runs the per-pattern and the
// pipeline MNI routes on 600 workers (run it with -race): every worker ID
// must get a shard of its own, and the tables must equal the
// InsertAll-over-refmatch oracle. The test checks that workers with IDs of
// 256 and above delivered, so a fold into 256 fixed shards would let two
// live workers share one.
func TestMNISinkOwnsOneShardPerWorkerID(t *testing.T) {
	plain, err := dataset.ErdosRenyi(1000, 8, 0, 23)
	if err != nil {
		t.Fatal(err)
	}
	g := yieldingGraph{plain}
	eng := peregrine.New(600)
	queries := []*pattern.Pattern{
		pattern.Wedge().AsEdgeInduced(),
		pattern.FourCycle().AsEdgeInduced(),
		pattern.TailedTriangle().AsEdgeInduced(),
	}
	want := make([]*aggr.Table, len(queries))
	for i, q := range queries {
		want[i] = directMNI(plain, q)
		got, st, err := MineMNITable(context.Background(), eng, g, q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want[i]) {
			t.Errorf("MineMNITable(%v) = %v, oracle %v", q, got, want[i])
		}
		if q.N() == 3 && !deliveredFrom(st, 256) {
			t.Errorf("MineMNITable(%v): no worker with ID >= 256 delivered", q)
		}
	}
	tables, st, err := (&Runner{Engine: eng}).MNITablesCtx(context.Background(), g, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if !tables[i].Equal(want[i]) {
			t.Errorf("MNITables(%v) = %v, oracle %v", q, tables[i], want[i])
		}
	}
	if !deliveredFrom(st.Mining, 256) {
		t.Error("MNITablesCtx: no worker with ID >= 256 delivered")
	}
}

// deliveredFrom reports whether some worker with an ID of at least id
// found matches in st's execution.
func deliveredFrom(st *engine.Stats, id int) bool {
	return slices.ContainsFunc(st.Workers, func(w engine.WorkerStats) bool { return w.Worker >= id && w.Matches > 0 })
}

// BenchmarkMineMNITable is one FSM candidate end to end: a labeled
// 4-vertex path on MI x0.003 through the engine, the sink, the merge and
// the saturation pass.
func BenchmarkMineMNITable(b *testing.B) {
	rec, err := dataset.ByName("MI")
	if err != nil {
		b.Fatal(err)
	}
	g, err := rec.Scaled(0.003).Generate()
	if err != nil {
		b.Fatal(err)
	}
	// The graph's two most frequent labels, so the pattern has matches.
	freq := map[int32]int{}
	for _, l := range g.Labels() {
		freq[l]++
	}
	var l0, l1 int32
	for l, n := range freq {
		if n > freq[l0] || n == freq[l0] && l < l0 {
			l0, l1 = l, l0
		} else if n > freq[l1] || n == freq[l1] && l < l1 {
			l1 = l
		}
	}
	p := pattern.MustNew(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, pattern.WithLabels([]int32{l0, l1, l0, l1}))
	eng := peregrine.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	var matches uint64
	for i := 0; i < b.N; i++ {
		tbl, st, err := MineMNITable(context.Background(), eng, g, p)
		if err != nil {
			b.Fatal(err)
		}
		if tbl.Support() == 0 {
			b.Fatal("pattern has no matches")
		}
		matches = st.Matches
	}
	b.ReportMetric(float64(matches), "matches/op")
}
