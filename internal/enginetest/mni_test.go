package enginetest

import (
	"math/rand"
	"testing"

	"morphing/internal/aggr"
	"morphing/internal/autozero"
	"morphing/internal/bigjoin"
	"morphing/internal/canon"
	"morphing/internal/core"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/graphpi"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/refmatch"
)

// mniOracle is the full-MNI table by definition: every oracle match under
// every automorphism.
func mniOracle(g *graph.Graph, p *pattern.Pattern) *aggr.Table {
	tbl := aggr.NewTable(p.N())
	auts := canon.Automorphisms(p)
	for _, m := range refmatch.Matches(g, p) {
		tbl.InsertAll(m, auts)
	}
	return tbl
}

// TestMNITablesEqualInsertAllOracle is the saturation identity end to
// end: the MNI sink records one representative per match and applies the
// automorphisms once per pattern, and the result must equal the oracle
// column for column — on every engine (4 threads, so run it with -race),
// through the per-pattern route, the batched morphing route and the
// on-the-fly route (a 1-byte MemoryBudget), on labeled and unlabeled
// graphs, for every pattern of up to 4 vertices and a 5-vertex sample.
// The MNI pipeline needs native vertex-induced matching (core.policyFor),
// so the two edge-only models take the per-pattern route alone. The
// MORPH_COMPRESSED / MORPH_HUB_BITSET suites repeat it on those tiers.
func TestMNITablesEqualInsertAllOracle(t *testing.T) {
	engines := []engine.Engine{peregrine.New(4), autozero.New(4), graphpi.New(4), bigjoin.New(4)}
	r := rand.New(rand.NewSource(77))
	routes := map[string]int{} // a budget the estimate fits (no expected matches) stays batched
	for _, numLabels := range []int{0, 3} {
		g := testGraph(t, 60+int64(numLabels), numLabels)
		plain := plainOf(t, g)
		for k := 2; k <= 5; k++ {
			shapes, err := canon.AllConnectedPatterns(k)
			if err != nil {
				t.Fatal(err)
			}
			var queries []*pattern.Pattern
			for i, shape := range shapes {
				if k == 5 && i%4 != 0 {
					continue
				}
				q := shape
				if numLabels > 0 {
					// Labels from the graph's alphabet, a wildcard now and
					// then.
					labels := make([]int32, k)
					for v := range labels {
						if labels[v] = int32(r.Intn(numLabels + 1)); labels[v] == int32(numLabels) {
							labels[v] = pattern.Unlabeled
						}
					}
					q = pattern.MustNew(k, shape.Edges(), pattern.WithLabels(labels))
				}
				queries = append(queries, q.AsEdgeInduced())
			}
			want := make([]*aggr.Table, len(queries))
			for i, q := range queries {
				want[i] = mniOracle(plain, q)
			}
			for _, e := range engines {
				for i, q := range queries {
					got, _, err := core.MineMNITable(e, g, q)
					if err != nil {
						t.Fatalf("%s %v: %v", e.Name(), q, err)
					}
					if !got.Equal(want[i]) {
						t.Errorf("%s per-pattern %v: %v, oracle %v", e.Name(), q, got, want[i])
					}
				}
				if !e.SupportsInduced(pattern.VertexInduced) {
					continue
				}
				for _, budget := range []uint64{0, 1} {
					tables, st, err := (&core.Runner{Engine: e, MemoryBudget: budget}).MNITables(g, queries)
					if err != nil {
						t.Fatalf("%s budget %d: %v", e.Name(), budget, err)
					}
					routes[st.ConversionMode]++
					for i, q := range queries {
						if !tables[i].Equal(want[i]) {
							t.Errorf("%s %s %v: %v, oracle %v", e.Name(), st.ConversionMode, q, tables[i], want[i])
						}
					}
				}
			}
		}
	}
	if routes["batched"] == 0 || routes["on-the-fly"] == 0 {
		t.Errorf("pipeline runs by conversion route: %v, want both exercised", routes)
	}
}
