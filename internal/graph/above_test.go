package graph_test

import (
	"sync"
	"testing"

	"morphing/internal/dataset"
	"morphing/internal/graph"
	"morphing/internal/setops"
)

// checkAbove holds the upper-row offsets against a search of every row: one
// entry per vertex, each the index of the vertex's first neighbour above it.
// It reports the first mismatch only, and may run off the test goroutine.
func checkAbove(t testing.TB, name string, g *graph.Graph) {
	t.Helper()
	above := g.AboveRows()
	if len(above) != g.NumVertices() {
		t.Errorf("%s: %d offsets for %d vertices", name, len(above), g.NumVertices())
		return
	}
	for v := range above {
		if want := setops.SearchAbove(g.Neighbors(uint32(v)), uint32(v)); int(above[v]) != want {
			t.Errorf("%s: vertex %d (degree %d) has offset %d, SearchAbove says %d", name, v, g.Degree(uint32(v)), above[v], want)
			return
		}
	}
}

// TestAboveRowsBuildOnce holds the upper-row offsets to SearchAbove of
// every row on every dataset recipe at about a thousand vertices, on a
// degree-renumbered copy (hubs last: their rows have almost nothing above),
// on a graph with isolated vertices and on the empty graph; and races eight
// goroutines to the first AboveRows of a fresh graph (run under -race):
// each must read the one array the one build made.
func TestAboveRowsBuildOnce(t *testing.T) {
	for _, r := range dataset.All() {
		g, err := r.Scaled(1000 / float64(r.Vertices)).Generate()
		if err != nil {
			t.Fatal(err)
		}
		checkAbove(t, r.Name, g)
		sorted, _ := graph.SortByDegree(g)
		checkAbove(t, r.Name+" by degree", sorted)
	}
	sparse := graph.MustFromEdges(10, [][2]uint32{{2, 7}, {7, 9}, {2, 9}}, nil) // 0, 1, 3–6 and 8 isolated
	checkAbove(t, "isolated", sparse)
	empty := graph.MustFromEdges(0, nil, nil)
	checkAbove(t, "empty", empty)

	g := wheel(300)
	var wg sync.WaitGroup
	first := make([][]uint32, 8)
	for i := range first {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first[i] = g.AboveRows()
			checkAbove(t, "racing", g)
		}()
	}
	wg.Wait()
	for i, above := range first {
		if len(above) != 300 || &above[0] != &first[0][0] {
			t.Fatalf("goroutine %d read offsets of another build than goroutine 0", i)
		}
	}
}
