package core

import (
	"context"
	"math/rand"
	"testing"

	"morphing/internal/aggr"
	"morphing/internal/canon"
	"morphing/internal/pattern"
)

// TestFuzzSelectionAlwaysConvertible is the selection/conversion
// integration fuzz: for random query sets (random shapes, variants and
// duplicates) under random cost tables and every applicable policy,
// Algorithm 1's output must always be convertible and the converted
// counts must match the oracle. This guards the coverage invariant — "for
// every query, its up-set is derivable from the mined set" — across the
// whole reachable selection space, not just the model-chosen corner.
func TestFuzzSelectionAlwaysConvertible(t *testing.T) {
	g := oracleGraphs(t)[0]
	r := rand.New(rand.NewSource(20260704))
	shapes := fourPatterns(t)
	three, err := canon.AllConnectedPatterns(3)
	if err != nil {
		t.Fatal(err)
	}
	shapes = append(shapes, three...)

	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		// Random query set: 1..5 queries, random variants, duplicates OK.
		nq := 1 + r.Intn(5)
		queries := make([]*pattern.Pattern, nq)
		for i := range queries {
			base := shapes[r.Intn(len(shapes))]
			if r.Intn(2) == 0 {
				queries[i] = base.AsVertexInduced()
			} else {
				queries[i] = base.AsEdgeInduced()
			}
		}
		costs := func(n *Node) Costs {
			return Costs{E: r.Float64() * 1000, V: r.Float64() * 1000}
		}
		// Every policy is applicable: vertex-induced queries stay as-is
		// under PolicyVertexOnly and are force-morphed under
		// PolicyEdgeOnly; edge-induced queries work everywhere.
		policies := []Policy{PolicyAny, PolicyVertexOnly, PolicyEdgeOnly}

		for _, policy := range policies {
			d, err := BuildSDAG(queries)
			if err != nil {
				t.Fatal(err)
			}
			sel, err := Select(context.Background(), d, queries, additive(costs), policy, false)
			if err != nil {
				t.Fatalf("trial %d policy %v: Select: %v", trial, policy, err)
			}
			vals, err := sel.Convert(aggr.Count{}, oracleCounts(g, sel))
			if err != nil {
				t.Fatalf("trial %d policy %v queries %v mine %v: Convert: %v",
					trial, policy, queries, sel.Mine, err)
			}
			for i, q := range queries {
				want := oracleCount(g, q)
				if got := vals[i].(uint64); got != want {
					t.Fatalf("trial %d policy %v query %v: morphed %d, direct %d (mine=%v)",
						trial, policy, q, got, want, sel.Mine)
				}
			}
		}
	}
}

// TestFuzzSelectionCostNeverWorse checks the greedy guarantee: the
// modeled cost of the chosen alternative set never exceeds the modeled
// cost of the query set (Algorithm 1 only accepts strict improvements).
func TestFuzzSelectionCostNeverWorse(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	shapes := fourPatterns(t)
	for trial := 0; trial < 40; trial++ {
		nq := 1 + r.Intn(4)
		queries := make([]*pattern.Pattern, nq)
		for i := range queries {
			base := shapes[r.Intn(len(shapes))]
			queries[i] = base.Variant(pattern.Induced(r.Intn(2)))
		}
		costs := func(n *Node) Costs {
			return Costs{E: 1 + r.Float64()*100, V: 1 + r.Float64()*100}
		}
		d, err := BuildSDAG(queries)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := Select(context.Background(), d, queries, additive(costs), PolicyAny, false)
		if err != nil {
			t.Fatal(err)
		}
		// Allow for float round-off only.
		if sel.CostAfter > sel.CostBefore*1.0000001 {
			t.Fatalf("trial %d: selection raised modeled cost %v -> %v (mine=%v)",
				trial, sel.CostBefore, sel.CostAfter, sel.Mine)
		}
	}
}

// TestFuzzStreamPlanCoversEveryQuery: for random edge-induced query sets,
// the stream plan must route every query through at least one choice and
// total conversion-map multiplicity must equal the Eq. 1 coefficients.
func TestFuzzStreamPlanCoverage(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	shapes := fourPatterns(t)
	for trial := 0; trial < 30; trial++ {
		nq := 1 + r.Intn(4)
		queries := make([]*pattern.Pattern, nq)
		for i := range queries {
			queries[i] = shapes[r.Intn(len(shapes))].AsEdgeInduced()
		}
		costs := func(n *Node) Costs {
			return Costs{E: 1 + r.Float64()*100, V: 1 + r.Float64()*100}
		}
		d, err := BuildSDAG(queries)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := Select(context.Background(), d, queries, additive(costs), PolicyVertexOnly, false)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sel.StreamPlan()
		if err != nil {
			t.Fatal(err)
		}
		covered := make([]bool, nq)
		for _, targets := range plan {
			for _, tg := range targets {
				covered[tg.Query] = true
			}
		}
		for qi, ok := range covered {
			if !ok {
				t.Fatalf("trial %d: query %d (%v) not covered by any stream", trial, qi, queries[qi])
			}
		}
	}
}

// TestStreamPlanRejectsMorphedVertexQueries: a stream cannot be
// subtracted, so a vertex-induced query that selection morphed (forced
// here) has no stream plan.
func TestStreamPlanRejectsMorphedVertexQueries(t *testing.T) {
	q := pattern.FourCycle().AsVertexInduced()
	d, err := BuildSDAG([]*pattern.Pattern{q})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(context.Background(), d, []*pattern.Pattern{q}, forceMorphCosts([]*pattern.Pattern{q}), PolicyAny, false)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Queries[0].Morphed {
		t.Fatal("forced selection did not morph")
	}
	if _, err := sel.StreamPlan(); err == nil {
		t.Fatal("stream plan accepted a morphed vertex-induced query")
	}
}
