package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"morphing/internal/aggr"
	"morphing/internal/canon"
	"morphing/internal/costmodel"
	"morphing/internal/pattern"
)

// appendixA2Costs reproduces the cost table of Fig. 17c: pa=4-star,
// pb=4-path, pc=4-cycle, pd=tailed triangle, pe=diamond, pf=4-clique.
func appendixA2Costs(t *testing.T) CostFunc {
	t.Helper()
	table := map[uint64]Costs{
		canon.StructureID(pattern.FourStar()):         {E: 1, V: 20},
		canon.StructureID(pattern.Path(4)):            {E: 3, V: 30},
		canon.StructureID(pattern.FourCycle()):        {E: 10, V: 12},
		canon.StructureID(pattern.TailedTriangle()):   {E: 5, V: 10},
		canon.StructureID(pattern.ChordalFourCycle()): {E: 5, V: 9},
		canon.StructureID(pattern.FourClique()):       {E: 7, V: 7},
	}
	return additive(func(n *Node) Costs {
		c, ok := table[n.ID]
		if !ok {
			t.Fatalf("cost requested for unexpected structure %v", n.Pattern)
		}
		return c
	})
}

// TestSelectAppendixA2 walks the Subgraph Counting example of Appendix
// A.2: queries {4-star, 4-path, 4-cycle} (vertex-induced) morph into the
// all-edge-induced alternative set {pEa..pEe, pf} under the Fig. 17c
// costs.
func TestSelectAppendixA2(t *testing.T) {
	queries := []*pattern.Pattern{
		pattern.FourStar().AsVertexInduced(),
		pattern.Path(4).AsVertexInduced(),
		pattern.FourCycle().AsVertexInduced(),
	}
	d, err := BuildSDAG(queries)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(context.Background(), d, queries, appendixA2Costs(t), PolicyAny, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Mine) != 6 {
		t.Fatalf("alternative set has %d patterns, want 6: %v", len(sel.Mine), sel.Mine)
	}
	for _, c := range sel.Mine {
		if c.Variant != pattern.EdgeInduced {
			t.Errorf("alternative %v selected vertex-induced; appendix expects all edge-induced", c.Node.Pattern)
		}
	}
	// Appendix totals: queries cost 20+30+12 = 62, alternatives
	// 1+3+10+5+5+7 = 31.
	if sel.CostBefore != 62 {
		t.Errorf("CostBefore = %v, want 62", sel.CostBefore)
	}
	if sel.CostAfter != 31 {
		t.Errorf("CostAfter = %v, want 31", sel.CostAfter)
	}
	for _, q := range sel.Queries {
		if !q.Morphed {
			t.Errorf("query %v not marked morphed", q.Pattern)
		}
	}
}

// TestSelectAppendixA2NoMorphWhenExpensive flips the table so morphing
// never pays off: the selection must be the identity.
func TestSelectNoMorphWhenExpensive(t *testing.T) {
	queries := []*pattern.Pattern{pattern.FourCycle().AsVertexInduced()}
	d, err := BuildSDAG(queries)
	if err != nil {
		t.Fatal(err)
	}
	cheapQueries := func(n *Node) Costs { return Costs{E: 1000, V: 1} }
	sel, err := Select(context.Background(), d, queries, additive(cheapQueries), PolicyAny, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Mine) != 1 || sel.Mine[0].Variant != pattern.VertexInduced {
		t.Fatalf("expected identity selection, got %v", sel.Mine)
	}
	if sel.Queries[0].Morphed {
		t.Fatal("query wrongly marked morphed")
	}
	// The unmorphed query keeps its own pattern object (frame).
	if sel.Mine[0].Pattern != queries[0] {
		t.Fatal("unmorphed query must be mined with its original object")
	}
}

// TestSelectAppendixA1 walks the FSM example of Appendix A.1: the labeled
// edge-induced 4-star (center and two leaves sharing a label, one leaf
// distinct — Fig. 16a yields six structures pa..pf) morphs into the full
// vertex-induced up-set under Fig. 16c-style costs, with total cost 21.
func TestSelectAppendixA1(t *testing.T) {
	q := pattern.MustNew(4, [][2]int{{0, 1}, {0, 2}, {0, 3}},
		pattern.WithLabels([]int32{0, 0, 0, 1}))
	d, err := BuildSDAG([]*pattern.Pattern{q})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 6 {
		t.Fatalf("S-DAG has %d nodes, want 6 (pa..pf)", d.Len())
	}
	// Fig. 16c costs keyed by edge count; the two structures per edge
	// count share a row's scale (which labeling maps to pb vs pc is
	// immaterial to the selection outcome).
	costs := func(n *Node) Costs {
		switch n.Pattern.EdgeCount() {
		case 3:
			return Costs{E: 25, V: 4} // pa
		case 4:
			return Costs{E: 16, V: 3} // pb, pc
		case 5:
			return Costs{E: 5.5, V: 2.5} // pd, pe
		default:
			return Costs{E: 5, V: 5} // pf
		}
	}
	sel, err := Select(context.Background(), d, []*pattern.Pattern{q}, additive(costs), PolicyVertexOnly, false)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Queries[0].Morphed {
		t.Fatal("pEa not morphed despite cheaper V up-set")
	}
	if len(sel.Mine) != 6 {
		t.Fatalf("alternative set has %d patterns, want all 6", len(sel.Mine))
	}
	for _, c := range sel.Mine {
		if c.Variant != pattern.VertexInduced && !c.Node.Pattern.IsClique() {
			t.Errorf("non-vertex-induced alternative %v", c.Node.Pattern)
		}
	}
	if sel.CostBefore != 25 {
		t.Errorf("CostBefore = %v, want 25", sel.CostBefore)
	}
	if sel.CostAfter != 4+3+3+2.5+2.5+5 {
		t.Errorf("CostAfter = %v, want 20 (Fig. 16c vertex-induced totals)", sel.CostAfter)
	}
}

func TestSelectFSMStyleVertexOnly(t *testing.T) {
	// FSM morphs edge-induced queries into all-vertex-induced
	// alternatives (Appendix A.1): the edge-induced 4-star with a huge
	// match count morphs into its V up-set.
	q := pattern.FourStar() // edge-induced
	d, err := BuildSDAG([]*pattern.Pattern{q})
	if err != nil {
		t.Fatal(err)
	}
	costs := func(n *Node) Costs {
		if canon.IsIsomorphic(n.Pattern, pattern.FourStar()) {
			return Costs{E: 25, V: 4}
		}
		return Costs{E: 20, V: 3}
	}
	sel, err := Select(context.Background(), d, []*pattern.Pattern{q}, additive(costs), PolicyVertexOnly, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Mine) != 4 {
		t.Fatalf("alternative set has %d patterns, want 4 (V up-set)", len(sel.Mine))
	}
	for _, c := range sel.Mine {
		if c.Variant != pattern.VertexInduced && !c.Node.Pattern.IsClique() {
			t.Errorf("PolicyVertexOnly selected edge-induced %v", c.Node.Pattern)
		}
	}
	if !sel.Queries[0].Morphed {
		t.Fatal("query should be morphed")
	}
}

func TestSelectVertexOnlyNeverMorphsVertexQueries(t *testing.T) {
	q := pattern.FourCycle().AsVertexInduced()
	d, err := BuildSDAG([]*pattern.Pattern{q})
	if err != nil {
		t.Fatal(err)
	}
	// Even with absurd costs, a vertex-induced query cannot morph under
	// the additive-only policy.
	costs := func(n *Node) Costs { return Costs{E: 0.001, V: 1e9} }
	sel, err := Select(context.Background(), d, []*pattern.Pattern{q}, additive(costs), PolicyVertexOnly, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Mine) != 1 || sel.Queries[0].Morphed {
		t.Fatalf("vertex-induced query morphed under PolicyVertexOnly: %v", sel.Mine)
	}
}

func TestSelectEdgeOnlyForcesMorph(t *testing.T) {
	// GraphPi/BigJoin: vertex-induced queries must morph to edge-induced
	// alternatives even when the cost model disfavors it.
	q := pattern.TailedTriangle().AsVertexInduced()
	d, err := BuildSDAG([]*pattern.Pattern{q})
	if err != nil {
		t.Fatal(err)
	}
	costs := func(n *Node) Costs { return Costs{E: 1e9, V: 1} }
	sel, err := Select(context.Background(), d, []*pattern.Pattern{q}, additive(costs), PolicyEdgeOnly, false)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Queries[0].Morphed {
		t.Fatal("vertex-induced query must morph under PolicyEdgeOnly")
	}
	if len(sel.Mine) != 3 { // TT, diamond, K4 — all edge-induced
		t.Fatalf("mine list %v, want 3 edge-induced structures", sel.Mine)
	}
	for _, c := range sel.Mine {
		if c.Variant != pattern.EdgeInduced {
			t.Errorf("PolicyEdgeOnly selected vertex-induced %v", c.Node.Pattern)
		}
	}
}

// TestSelectFailsClosedOnFaultyCost injects a NaN, infinite or negative
// price on one level of one variant — of a query, priced before the main
// loop, or of a 4-vertex superpattern, met inside it once costs that force
// every morph have had the wedge morphed — and checks that Select decides
// nothing on it: the queries are mined as they are (under PolicyEdgeOnly,
// through the morphs the engine cannot do without), the explain trace
// names the fault, and the converted counts equal the direct route's.
func TestSelectFailsClosedOnFaultyCost(t *testing.T) {
	g := oracleGraphs(t)[0]
	queries := []*pattern.Pattern{pattern.Wedge().AsVertexInduced(), pattern.Path(4).AsVertexInduced()}
	forced := forceMorphCosts(queries)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		for _, target := range []*pattern.Pattern{queries[1], pattern.ChordalFourCycle()} {
			for _, variant := range []pattern.Induced{pattern.EdgeInduced, pattern.VertexInduced} {
				id := canon.StructureID(target)
				cost := func(n *Node, v pattern.Induced, dst []costmodel.Level) []costmodel.Level {
					out := forced(n, v, dst)
					if n.ID == id && v == variant {
						out[len(dst)].Cost = bad
					}
					return out
				}
				for _, policy := range []Policy{PolicyAny, PolicyEdgeOnly} {
					name := fmt.Sprintf("%v on %v %v, policy %v", bad, target, variant, policy)
					d, err := BuildSDAG(queries)
					if err != nil {
						t.Fatal(err)
					}
					sel, err := Select(context.Background(), d, queries, cost, policy, true)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if sel.Explain.CostFault == "" {
						t.Errorf("%s: no fault recorded", name)
					}
					for _, q := range sel.Queries {
						if q.Morphed != (policy == PolicyEdgeOnly) {
							t.Errorf("%s: query %v morphed: %v", name, q.Pattern, q.Morphed)
						}
					}
					vals, err := sel.Convert(aggr.Count{}, oracleCounts(g, sel))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for i, q := range queries {
						if got, want := vals[i].(uint64), oracleCount(g, q); got != want {
							t.Errorf("%s: %v counted %d, direct %d", name, q, got, want)
						}
					}
				}
			}
		}
	}
}

func TestSelectMotifCountingMorphsEverything(t *testing.T) {
	// Motif counting is the best case (§7.1): all vertex-induced motifs
	// queried together, anti-edge differences make V expensive, so the
	// whole set flips to edge-induced.
	base, err := canon.AllConnectedPatterns(4)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]*pattern.Pattern, len(base))
	for i, p := range base {
		queries[i] = p.AsVertexInduced()
	}
	d, err := BuildSDAG(queries)
	if err != nil {
		t.Fatal(err)
	}
	costs := func(n *Node) Costs {
		anti := n.Pattern.N()*(n.Pattern.N()-1)/2 - n.Pattern.EdgeCount()
		return Costs{E: 10, V: 10 + 20*float64(anti)}
	}
	sel, err := Select(context.Background(), d, queries, additive(costs), PolicyAny, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Mine) != 6 {
		t.Fatalf("mine list has %d patterns, want 6", len(sel.Mine))
	}
	for _, c := range sel.Mine {
		if c.Variant != pattern.VertexInduced {
			continue
		}
		if !c.Node.Pattern.IsClique() {
			t.Errorf("motif morphing kept vertex-induced %v", c.Node.Pattern)
		}
	}
	if sel.CostAfter >= sel.CostBefore {
		t.Errorf("morphing did not reduce modeled cost: %v >= %v", sel.CostAfter, sel.CostBefore)
	}
}

func TestSelectEmptyQueries(t *testing.T) {
	d, err := BuildSDAG(nil)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(context.Background(), d, nil, additive(func(*Node) Costs { return Costs{} }), PolicyAny, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Mine) != 0 || len(sel.Queries) != 0 {
		t.Fatal("empty query set must produce empty selection")
	}
}

func TestSelectQueryMissingFromSDAG(t *testing.T) {
	d, err := BuildSDAG([]*pattern.Pattern{pattern.Triangle()})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Select(context.Background(), d, []*pattern.Pattern{pattern.FourCycle()}, additive(func(*Node) Costs { return Costs{} }), PolicyAny, false)
	if err == nil {
		t.Fatal("query outside the S-DAG accepted")
	}
}

func TestConversionMapsAndCoefficients(t *testing.T) {
	// The Fig. 7 coefficients.
	cases := []struct {
		name string
		p, q *pattern.Pattern
		want int
	}{
		{"C4 in K4", pattern.FourCycle(), pattern.FourClique(), 3},
		{"C4 in diamond", pattern.FourCycle(), pattern.ChordalFourCycle(), 1},
		{"diamond in K4", pattern.ChordalFourCycle(), pattern.FourClique(), 6},
		{"TT in diamond", pattern.TailedTriangle(), pattern.ChordalFourCycle(), 4},
		{"TT in K4", pattern.TailedTriangle(), pattern.FourClique(), 12},
		{"4-star in K4", pattern.FourStar(), pattern.FourClique(), 4},
		{"4-star in TT", pattern.FourStar(), pattern.TailedTriangle(), 1},
		{"4-star in C4", pattern.FourStar(), pattern.FourCycle(), 0},
		{"self", pattern.House(), pattern.House(), 1},
	}
	for _, tc := range cases {
		if got := CopyCoefficient(tc.p, tc.q); got != tc.want {
			t.Errorf("%s: coefficient %d, want %d", tc.name, got, tc.want)
		}
	}
	// Idempotent mode returns all isomorphisms: copies * |Aut(p)|.
	all := ConversionMaps(pattern.FourCycle(), pattern.FourClique(), true)
	if len(all) != 24 {
		t.Errorf("all-maps count %d, want 24", len(all))
	}
	reps := ConversionMaps(pattern.FourCycle(), pattern.FourClique(), false)
	if len(reps) != 3 {
		t.Errorf("rep-maps count %d, want 3", len(reps))
	}
}

// TestSelectDeclineBoundIsExact is the identity property of the decline
// bound: over randomized query sets (labeled and unlabeled, 3 to 5
// vertices, both variants, duplicates) under every policy and random cost
// tables rich in ties and zeros, Select returns the selection of the
// exhaustive enumeration over the eager closure (eagerSelect, which takes
// no bound), and explain mode returns Select's selection bit for bit after
// expanding the same S-DAG. Costs are small integers: sums are exact in any
// order, so "identical" means bit for bit.
func TestSelectDeclineBoundIsExact(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var shapes []*pattern.Pattern
	for k := 3; k <= 5; k++ {
		all, err := canon.AllConnectedPatterns(k)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, all...)
	}
	trials := 200
	if testing.Short() {
		trials = 40
	}
	morphed, identity := 0, 0
	for trial := 0; trial < trials; trial++ {
		labeled := r.Intn(2) == 0
		queries := make([]*pattern.Pattern, 1+r.Intn(6))
		for i := range queries {
			q := shapes[r.Intn(len(shapes))]
			if labeled {
				labels := make([]int32, q.N())
				for v := range labels {
					labels[v] = int32(r.Intn(2))
				}
				q = pattern.MustNew(q.N(), q.Edges(), pattern.WithLabels(labels))
			}
			queries[i] = q.Variant(pattern.Induced(r.Intn(2)))
		}
		// One table per trial, so both runs see the same costs: a narrow
		// range makes ties and zeros common, a wide one makes them rare.
		span := []int{2, 4, 1000}[r.Intn(3)]
		table := map[uint64]Costs{}
		costs := func(n *Node) Costs {
			c, ok := table[n.ID]
			if !ok {
				c = Costs{E: float64(r.Intn(span)), V: float64(r.Intn(span))}
				table[n.ID] = c
			}
			return c
		}
		eager := eagerSDAG(t, queries)
		for _, policy := range []Policy{PolicyAny, PolicyVertexOnly, PolicyEdgeOnly} {
			wantS, wantBefore, wantAfter := eagerSelect(eager, queries, additive(costs), policy)
			var sels [2]*Selection
			var built [2]int
			for i := range sels {
				d, err := BuildSDAG(queries)
				if err != nil {
					t.Fatal(err)
				}
				if sels[i], err = Select(context.Background(), d, queries, additive(costs), policy, i == 1); err != nil {
					t.Fatal(err)
				}
				built[i] = d.Materialized()
			}
			got, explained := sels[0], sels[1]
			same := len(got.Mine) == len(wantS) && got.CostBefore == wantBefore && got.CostAfter == wantAfter
			for _, c := range got.Mine {
				same = same && wantS[pairKey{c.Node.ID, c.Variant}] != nil
			}
			for _, q := range got.Queries {
				same = same && q.Morphed == (wantS[pairKey{q.Node.ID, normVariant(q.Pattern)}] == nil)
			}
			if !same {
				t.Fatalf("trial %d policy %v queries %v:\n bound      %v (cost %v -> %v)\n exhaustive %d pairs (cost %v -> %v)",
					trial, policy, queries, got.Mine, got.CostBefore, got.CostAfter, len(wantS), wantBefore, wantAfter)
			}
			same = len(got.Mine) == len(explained.Mine) && got.CostAfter == explained.CostAfter && built[0] == built[1]
			for i := 0; same && i < len(got.Mine); i++ {
				g, w := got.Mine[i], explained.Mine[i]
				same = g.Node.ID == w.Node.ID && g.Variant == w.Variant && g.Pattern.String() == w.Pattern.String()
			}
			for i := range got.Queries {
				same = same && got.Queries[i].Morphed == explained.Queries[i].Morphed
			}
			if !same {
				t.Fatalf("trial %d policy %v queries %v:\n plain     %v (cost %v, %d structures)\n explained %v (cost %v, %d structures)",
					trial, policy, queries, got.Mine, got.CostAfter, built[0], explained.Mine, explained.CostAfter, built[1])
			}
			if got.CostAfter < got.CostBefore {
				morphed++
			} else {
				identity++
			}
		}
	}
	if morphed < trials/4 || identity < trials/4 {
		t.Fatalf("%d selections morphed, %d declined: the property needs both in numbers", morphed, identity)
	}
}

// TestSelectDeclineBoundYieldsToScheduledSelfPair pins the case the bound
// must not take. Under PolicyVertexOnly the edge-induced 4-cycle's own
// vertex-induced variant costs more than it does (12 against 10), which
// alone would decline — but that pair and the whole up-set are queries
// already, so replacing the 4-cycle adds nothing and saves 10.
func TestSelectDeclineBoundYieldsToScheduledSelfPair(t *testing.T) {
	queries := []*pattern.Pattern{
		pattern.FourCycle().AsEdgeInduced(),
		pattern.FourCycle().AsVertexInduced(),
		pattern.ChordalFourCycle().AsVertexInduced(),
		pattern.FourClique(),
	}
	d, err := BuildSDAG(queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, explain := range []bool{false, true} {
		sel, err := Select(context.Background(), d, queries, appendixA2Costs(t), PolicyVertexOnly, explain)
		if err != nil {
			t.Fatal(err)
		}
		if len(sel.Mine) != 3 || !sel.Queries[0].Morphed || sel.CostBefore != 10+12+9+7 || sel.CostAfter != 12+9+7 {
			t.Errorf("explain=%v: mine %v, 4-cycle:e morphed %v, cost %v -> %v; want the three scheduled pairs at 38 -> 28",
				explain, sel.Mine, sel.Queries[0].Morphed, sel.CostBefore, sel.CostAfter)
		}
	}
}
