package core

import (
	"context"
	"testing"

	"morphing/internal/dataset"
	"morphing/internal/enginetest"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// TestMNISinkOwnsOneShardPerWorkerID runs the per-pattern and the
// pipeline MNI routes under 600 concurrent worker IDs (run it with -race): every ID must get a shard of
// its own, and the tables must equal the InsertAll-over-refmatch oracle.
func TestMNISinkOwnsOneShardPerWorkerID(t *testing.T) {
	g, err := dataset.ErdosRenyi(60, 8, 0, 23)
	if err != nil {
		t.Fatal(err)
	}
	eng := enginetest.WideEngine{Workers: 600}
	queries := []*pattern.Pattern{
		pattern.Wedge().AsEdgeInduced(),
		pattern.FourCycle().AsEdgeInduced(),
		pattern.TailedTriangle().AsEdgeInduced(),
	}
	for _, q := range queries {
		got, _, err := MineMNITable(context.Background(), eng, g, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := directMNI(g, q); !got.Equal(want) {
			t.Errorf("MineMNITable(%v) = %v, oracle %v", q, got, want)
		}
	}
	tables, _, err := (&Runner{Engine: eng}).MNITablesCtx(context.Background(), g, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if want := directMNI(g, q); !tables[i].Equal(want) {
			t.Errorf("MNITables(%v) = %v, oracle %v", q, tables[i], want)
		}
	}
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
