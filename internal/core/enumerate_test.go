package core

import (
	"fmt"
	"testing"

	"morphing/internal/aggr"
	"morphing/internal/canon"
	"morphing/internal/pattern"
)

// motifQueries returns every connected k-vertex pattern in variant v.
func motifQueries(t *testing.T, k int, v pattern.Induced) []*pattern.Pattern {
	t.Helper()
	bases, err := canon.AllConnectedPatterns(k)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]*pattern.Pattern, len(bases))
	for i, b := range bases {
		queries[i] = b.Variant(v)
	}
	return queries
}

// setKey fingerprints a selection's mined pairs, in Mine order.
func setKey(sel *Selection) string {
	key := ""
	for _, c := range sel.Mine {
		key += fmt.Sprintf("%d/%d ", c.Node.ID, c.Variant)
	}
	return key
}

func TestEnumerateAssignments(t *testing.T) {
	queries := motifQueries(t, 4, pattern.VertexInduced)
	d, err := BuildSDAG(queries)
	if err != nil {
		t.Fatal(err)
	}
	sels, err := EnumerateAssignments(d, queries, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) != 20 {
		t.Fatalf("got %d assignments, want 20", len(sels))
	}
	// The first set is the query set itself.
	for _, c := range sels[0].Mine {
		if !c.Node.Pattern.IsClique() && c.Variant != pattern.VertexInduced {
			t.Fatalf("first assignment not all vertex-induced: %v", c)
		}
	}
	// The second is all edge-induced.
	for _, c := range sels[1].Mine {
		if c.Variant != pattern.EdgeInduced || c.Pattern.Induced() != pattern.EdgeInduced {
			t.Fatalf("second assignment not all edge-induced: %v", c)
		}
	}
	for _, sel := range sels {
		// Every set covers every structure exactly once.
		if len(sel.Mine) != d.Len() || len(sel.byPair) != d.Len() {
			t.Fatalf("assignment mines %d pairs, want %d", len(sel.Mine), d.Len())
		}
		for _, q := range sel.Queries {
			_, direct := sel.byPair[pairKey{q.Node.ID, normVariant(q.Pattern)}]
			if q.Morphed == direct {
				t.Fatalf("query %v morphed %v, mined directly %v", q.Pattern, q.Morphed, direct)
			}
		}
	}
	// Deterministic in seed.
	again, err := EnumerateAssignments(d, queries, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sels {
		if setKey(sels[i]) != setKey(again[i]) {
			t.Fatalf("assignment %d differs between two calls with one seed", i)
		}
	}
}

// TestEnumerateAssignmentsAreDistinct: no set is sampled twice, and a
// space smaller than the limit is returned whole — the 4-motif DAG has
// five non-clique structures, so 32 sets.
func TestEnumerateAssignmentsAreDistinct(t *testing.T) {
	for _, tc := range []struct {
		k, limit, want int
	}{{4, 32, 32}, {4, 40, 32}, {4, 250, 32}, {5, 250, 250}} {
		queries := motifQueries(t, tc.k, pattern.VertexInduced)
		d, err := BuildSDAG(queries)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2} {
			sels, err := EnumerateAssignments(d, queries, tc.limit, seed)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, sel := range sels {
				seen[setKey(sel)] = true
			}
			if len(sels) != tc.want || len(seen) != tc.want {
				t.Errorf("%d-motifs, limit %d, seed %d: %d sets, %d distinct; want %d", tc.k, tc.limit, seed, len(sels), len(seen), tc.want)
			}
		}
	}
}

// TestEverySampledSetConverts is the morphing identity over the space of
// alternative sets: for the 3-, 4- and 5-motif query sets, queried
// vertex-induced and edge-induced at once, every sampled set's oracle
// counts, converted by Selection.Convert, equal the direct oracle count of
// every query.
func TestEverySampledSetConverts(t *testing.T) {
	for gi, g := range oracleGraphs(t) {
		for _, tc := range []struct{ k, limit int }{{3, 4}, {4, 40}, {5, 40}} {
			if tc.k == 5 && (gi > 0 || testing.Short()) {
				continue
			}
			queries := append(motifQueries(t, tc.k, pattern.VertexInduced), motifQueries(t, tc.k, pattern.EdgeInduced)...)
			d, err := BuildSDAG(queries)
			if err != nil {
				t.Fatal(err)
			}
			sels, err := EnumerateAssignments(d, queries, tc.limit, 3)
			if err != nil {
				t.Fatal(err)
			}
			for si, sel := range sels {
				vals, err := sel.Convert(aggr.Count{}, oracleCounts(g, sel))
				if err != nil {
					t.Fatalf("graph %d, %d-motifs, set %d: %v", gi, tc.k, si, err)
				}
				for i, q := range queries {
					if got, want := vals[i].(uint64), oracleCount(g, q); got != want {
						t.Errorf("graph %d, %d-motifs, set %d, query %v: converted %d, direct %d", gi, tc.k, si, q, got, want)
					}
				}
			}
		}
	}
}

// TestSampledSetErrors: a sampled set converts only a mined value per
// choice, and only queries inside the S-DAG are sampled for.
func TestSampledSetErrors(t *testing.T) {
	queries := []*pattern.Pattern{pattern.FourCycle().AsVertexInduced()}
	d, err := BuildSDAG(queries)
	if err != nil {
		t.Fatal(err)
	}
	sels, err := EnumerateAssignments(d, queries, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sels[0].Convert(aggr.Count{}, nil); err == nil {
		t.Error("value/choice length mismatch accepted")
	}
	if _, err := EnumerateAssignments(d, []*pattern.Pattern{pattern.FiveClique()}, 2, 1); err == nil {
		t.Error("query outside S-DAG accepted")
	}
}

func TestCanonIDStability(t *testing.T) {
	// Guard against representative drift: node identity must match query
	// identity for any numbering.
	q := pattern.MustNew(4, [][2]int{{3, 2}, {2, 1}, {1, 0}, {0, 3}})
	d, err := BuildSDAG([]*pattern.Pattern{q})
	if err != nil {
		t.Fatal(err)
	}
	if d.Node(q) == nil || d.Node(pattern.FourCycle()) != d.Node(q) {
		t.Fatal("structure identity broken")
	}
	if canon.StructureID(d.Node(q).Pattern) != d.Node(q).ID {
		t.Fatal("representative ID mismatch")
	}
}
