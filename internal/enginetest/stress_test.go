package enginetest

import (
	"context"
	"math/rand"
	"testing"

	"morphing/internal/autozero"
	"morphing/internal/canon"
	"morphing/internal/dataset"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/refmatch"
)

// TestFuzzMergedSchedulesMatchOracle throws random multi-pattern batches
// (random shapes, variants, sizes, duplicates) at AutoZero's merged
// schedule trie and cross-checks every count against the oracle — the
// merging logic (shared loops, branched restrictions) is the most
// intricate engine code path.
func TestFuzzMergedSchedulesMatchOracle(t *testing.T) {
	g, err := dataset.ErdosRenyi(40, 7, 0, 101)
	if err != nil {
		t.Fatal(err)
	}
	var shapes []*pattern.Pattern
	for k := 2; k <= 4; k++ {
		ps, err := canon.AllConnectedPatterns(k)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, ps...)
	}
	r := rand.New(rand.NewSource(5))
	az := autozero.New(3)
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		n := 1 + r.Intn(7)
		batch := make([]*pattern.Pattern, n)
		for i := range batch {
			base := shapes[r.Intn(len(shapes))]
			batch[i] = base.Variant(pattern.Induced(r.Intn(2)))
		}
		counts, _, err := az.CountAllCtx(context.Background(), g, batch)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, p := range batch {
			if want := refmatch.Count(g, p); counts[i] != want {
				t.Fatalf("trial %d pattern %v: merged %d, oracle %d (batch %v)",
					trial, p, counts[i], want, batch)
			}
		}
	}
}

// TestEnginesOnDegenerateGraphs covers inputs partitioning produces:
// isolated vertices, empty graphs, a single edge.
func TestEnginesOnDegenerateGraphs(t *testing.T) {
	graphs := []*graph.Graph{
		graph.MustFromEdges(5, nil, nil),                              // edgeless
		graph.MustFromEdges(4, [][2]uint32{{1, 2}}, nil),              // one edge + isolated
		graph.MustFromEdges(1, nil, nil),                              // single vertex
		graph.MustFromEdges(6, [][2]uint32{{0, 1}, {4, 5}}, nil),      // two components
		graph.MustFromEdges(3, [][2]uint32{{0, 1}}, []int32{1, 1, 2}), // labeled
	}
	patterns := []*pattern.Pattern{
		pattern.Edge(),
		pattern.Triangle(),
		pattern.Wedge().AsVertexInduced(),
	}
	for gi, g := range graphs {
		for _, p := range patterns {
			want := refmatch.Count(g, p)
			for _, e := range allEngines() {
				if !e.SupportsInduced(p.Induced()) && !p.IsClique() {
					continue
				}
				got, _, err := e.CountCtx(context.Background(), g, p)
				if err != nil {
					t.Fatalf("graph %d %s: %v", gi, e.Name(), err)
				}
				if got != want {
					t.Errorf("graph %d %s pattern %v: %d, want %d", gi, e.Name(), p, got, want)
				}
			}
		}
	}
}

// TestPatternAsLargeAsGraph: a pattern with exactly as many vertices as
// the data graph, and one with more (zero matches, no crash).
func TestPatternAsLargeAsGraph(t *testing.T) {
	g := graph.MustFromEdges(4, [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, nil)
	for _, e := range allEngines() {
		got, _, err := e.CountCtx(context.Background(), g, pattern.FourCycle())
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if got != 1 {
			t.Errorf("%s: C4 in C4 = %d, want 1", e.Name(), got)
		}
		got, _, err = e.CountCtx(context.Background(), g, pattern.Cycle(5))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if got != 0 {
			t.Errorf("%s: C5 in C4 = %d, want 0", e.Name(), got)
		}
	}
}

// TestPeregrineThreadsExceedVertices: more workers than vertices must not
// deadlock or double count.
func TestPeregrineThreadsExceedVertices(t *testing.T) {
	g := graph.MustFromEdges(3, [][2]uint32{{0, 1}, {1, 2}, {0, 2}}, nil)
	e := peregrine.New(16)
	got, _, err := e.CountCtx(context.Background(), g, pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("triangle count = %d, want 1", got)
	}
}
