package graph_test

import (
	"slices"
	"sync"
	"testing"

	"morphing/internal/dataset"
	"morphing/internal/graph"
)

// labelRowGraphs are the shapes the label-row index has to partition: every
// dataset recipe at about a thousand vertices (two of them unlabeled),
// labeled ER, one hub adjacent to everything, and sparse label values of
// which most of the range never occurs.
func labelRowGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{}
	for _, r := range dataset.All() {
		g, err := r.Scaled(1200 / float64(r.Vertices)).Generate()
		if err != nil {
			t.Fatal(err)
		}
		gs[r.Name] = g
	}
	er, err := dataset.ErdosRenyi(200, 8, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	gs["er-l5"] = er
	const n = 300
	var hub [][2]uint32
	hubLabels, sparse := make([]int32, n), make([]int32, n)
	for v := uint32(1); v < n; v++ {
		hub = append(hub, [2]uint32{0, v}, [2]uint32{v, 1 + (v*7)%(n-1)})
	}
	for v := range hubLabels {
		hubLabels[v] = int32(v % 11)
		sparse[v] = []int32{2, 7, 1000}[v*v%3]
	}
	hub = slices.DeleteFunc(hub, func(e [2]uint32) bool { return e[0] == e[1] })
	gs["hub"] = graph.MustFromEdges(n, hub, hubLabels)
	gs["sparse-labels"] = graph.MustFromEdges(n, hub[:n], sparse)
	return gs
}

// checkLabelRows holds every row's label slices against the row itself:
// each slice strictly ascending and label-pure, the slices of a row disjoint
// with Neighbors(v) as their union, nothing for a label the graph lacks and
// nothing at all on an unlabeled graph.
func checkLabelRows(t testing.TB, name string, g *graph.Graph) {
	t.Helper()
	if !g.Labeled() {
		for v := uint32(0); int(v) < g.NumVertices(); v++ {
			if len(g.LabelRow(v, 0))+len(g.LabelRow(v, -1)) != 0 {
				t.Errorf("%s: unlabeled, yet vertex %d has a label row", name, v)
				return
			}
		}
		return
	}
	labels := slices.Clone(g.Labels())
	slices.Sort(labels)
	labels = slices.Compact(labels)
	var union []uint32
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		union = union[:0]
		for _, l := range labels {
			row := g.LabelRow(v, l)
			for i, u := range row {
				if g.Label(u) != l || i > 0 && row[i-1] >= u {
					t.Errorf("%s: LabelRow(%d, %d) = %v: not strictly ascending vertices of that label", name, v, l, row)
					return
				}
			}
			union = append(union, row...)
		}
		// Pure slices of distinct labels are disjoint; equal as sorted sets
		// then means they partition the row.
		slices.Sort(union)
		if !slices.Equal(union, g.Neighbors(v)) {
			t.Errorf("%s: label rows of %d add up to %v, its row is %v", name, v, union, g.Neighbors(v))
			return
		}
		for _, absent := range []int32{-5, 3, 1 << 20} {
			if _, ok := slices.BinarySearch(labels, absent); !ok && len(g.LabelRow(v, absent)) != 0 {
				t.Errorf("%s: LabelRow(%d, %d) = %v for a label the graph lacks", name, v, absent, g.LabelRow(v, absent))
				return
			}
		}
	}
}

func TestLabelRowsPartitionEveryRow(t *testing.T) {
	for name, g := range labelRowGraphs(t) {
		numLabels := g.NumLabels() // the scan, before the index exists
		if g.LabelRowsBytes() != 0 {
			t.Fatalf("%s: index built before the first LabelRow", name)
		}
		checkLabelRows(t, name, g)
		if built := g.LabelRowsBytes() != 0; built != g.Labeled() {
			t.Errorf("%s: labeled=%v, index built=%v", name, g.Labeled(), built)
		}
		if g.NumLabels() != numLabels {
			t.Errorf("%s: NumLabels %d from the index, %d from the scan", name, g.NumLabels(), numLabels)
		}
		// 4 B per directed edge, 8 B per (vertex, label present) pair — at most
		// one per directed edge, append's slack included twice over — and the
		// per-vertex offsets.
		if got, most := g.LabelRowsBytes(), int(g.NumEdges())*2*(4+16)+8*(g.NumVertices()+1); got > most {
			t.Errorf("%s: index holds %d B, budget %d", name, got, most)
		}
	}
}

// TestLabelRowsBuildOnce races goroutines to the first LabelRow of a fresh
// graph (run under -race): each must read a fully built index, and the same
// one.
func TestLabelRowsBuildOnce(t *testing.T) {
	g, err := dataset.MiCo().Scaled(0.02).Generate()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	first := make([][]uint32, 8)
	for i := range first {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first[i] = g.LabelRow(uint32(i%2), g.Label(g.Neighbors(uint32(i % 2))[0]))
			checkLabelRows(t, "racing", g)
		}()
	}
	wg.Wait()
	for i, row := range first {
		if len(row) == 0 || &row[0] != &first[i%2][0] {
			t.Fatalf("goroutine %d read %v from another index than goroutine %d", i, row, i%2)
		}
	}
}

// BenchmarkLabelIndexBuild times the one-off build the first labeled pass
// over a graph pays (on the repo benchmark's fsm-labeled it lands in
// setup_s) and reports what the index holds per undirected edge.
func BenchmarkLabelIndexBuild(b *testing.B) {
	for _, r := range []dataset.Recipe{dataset.MiCo().Scaled(0.01), dataset.MAG().Scaled(0.003)} {
		g, err := r.Generate()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(r.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.DropLabelRows()
				g.LabelRow(0, 0)
			}
			b.ReportMetric(float64(g.LabelRowsBytes())/float64(g.NumEdges()), "B/edge")
		})
	}
}
