package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"morphing/internal/aggr"
	"morphing/internal/canon"
	"morphing/internal/dataset"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/refmatch"
)

// forceMorphCosts makes every query prohibitively expensive in its own
// variant so Algorithm 1 always morphs, exercising conversion maximally.
func forceMorphCosts(queries []*pattern.Pattern) CostFunc {
	ids := map[uint64]pattern.Induced{}
	for _, q := range queries {
		ids[canon.StructureID(q)] = normVariant(q)
	}
	return additive(func(n *Node) Costs {
		c := Costs{E: 1, V: 1}
		if v, ok := ids[n.ID]; ok {
			if v == pattern.VertexInduced {
				c.V = 1e12
			} else {
				c.E = 1e12
			}
		}
		return c
	})
}

// oracleCounts produces the mined aggregation values for a selection
// using the brute-force oracle, so conversion is tested in isolation from
// engines. Counts are memoized per (graph, structure, variant) because
// the oracle is slow by design. The graph-ID registry retains every graph
// it has seen so the garbage collector can never recycle an address into
// a stale cache hit.
var (
	oracleMemo     = map[string]uint64{}
	oracleGraphIDs = map[*graph.Graph]int{}
)

func oracleCount(g *graph.Graph, p *pattern.Pattern) uint64 {
	gid, ok := oracleGraphIDs[g]
	if !ok {
		gid = len(oracleGraphIDs)
		oracleGraphIDs[g] = gid
	}
	key := fmt.Sprintf("%d/%d", gid, canon.ID(p))
	if v, ok := oracleMemo[key]; ok {
		return v
	}
	v := refmatch.Count(g, p)
	oracleMemo[key] = v
	return v
}

func oracleCounts(g *graph.Graph, sel *Selection) []aggr.Value {
	out := make([]aggr.Value, len(sel.Mine))
	for i, c := range sel.Mine {
		out[i] = oracleCount(g, c.Pattern)
	}
	return out
}

// testGraphSet is built once and held alive for the whole test binary:
// the oracle memo keys by graph pointer, so graphs must never be
// regenerated at a recycled address.
var (
	testGraphSet  []*graph.Graph
	testGraphOnce sync.Once
	testGraphErr  error
)

func testGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	testGraphOnce.Do(func() {
		for seed := int64(1); seed <= 2; seed++ {
			g, err := dataset.ErdosRenyi(35, 6, 0, seed)
			if err != nil {
				testGraphErr = err
				return
			}
			testGraphSet = append(testGraphSet, g)
		}
		pg, err := dataset.MiCo().Scaled(0.004).Generate()
		if err != nil {
			testGraphErr = err
			return
		}
		testGraphSet = append(testGraphSet, pg)
	})
	if testGraphErr != nil {
		t.Fatal(testGraphErr)
	}
	return testGraphSet
}

// oracleGraphs are the graphs cheap enough for brute-force comparisons.
func oracleGraphs(t *testing.T) []*graph.Graph {
	return testGraphs(t)[:2]
}

// TestEq1CountIdentity verifies the aggregated Eq. 1 directly against the
// oracle: countE(p) == sum over the up-set of CopyCoefficient * countV.
func TestEq1CountIdentity(t *testing.T) {
	for _, g := range oracleGraphs(t) {
		for _, base := range fourPatterns(t) {
			d, err := BuildSDAG([]*pattern.Pattern{base})
			if err != nil {
				t.Fatal(err)
			}
			wantE := oracleCount(g, base.AsEdgeInduced())
			sum := uint64(0)
			for _, s := range upSet(t, d, d.Node(base)) {
				coeff := uint64(CopyCoefficient(base, s.Pattern))
				sum += coeff * oracleCount(g, s.Pattern.AsVertexInduced())
			}
			if sum != wantE {
				t.Errorf("Eq.1 violated for %v: sum=%d, direct=%d", base, sum, wantE)
			}
		}
	}
}

func fourPatterns(t *testing.T) []*pattern.Pattern {
	t.Helper()
	ps, err := canon.AllConnectedPatterns(4)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestConvertCountsAllPolicies forces morphing for every ≤5-vertex
// connected pattern in both variants and checks converted counts against
// the oracle under every applicable policy.
func TestConvertCountsAllPolicies(t *testing.T) {
	g := oracleGraphs(t)[0]
	maxK := 5
	if testing.Short() {
		maxK = 4
	}
	for k := 3; k <= maxK; k++ {
		bases, err := canon.AllConnectedPatterns(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range bases {
			for _, iv := range []pattern.Induced{pattern.EdgeInduced, pattern.VertexInduced} {
				q := base.Variant(iv)
				want := refmatch.Count(g, q)
				policies := []Policy{PolicyAny}
				if iv == pattern.EdgeInduced {
					policies = append(policies, PolicyVertexOnly)
				} else if !q.IsClique() {
					policies = append(policies, PolicyEdgeOnly)
				}
				for _, policy := range policies {
					d, err := BuildSDAG([]*pattern.Pattern{q})
					if err != nil {
						t.Fatal(err)
					}
					sel, err := Select(context.Background(), d, []*pattern.Pattern{q}, forceMorphCosts([]*pattern.Pattern{q}), policy, false)
					if err != nil {
						t.Fatal(err)
					}
					if !q.IsClique() && !sel.Queries[0].Morphed {
						t.Fatalf("pattern %v policy %v: not morphed under forcing costs", q, policy)
					}
					vals, err := sel.Convert(aggr.Count{}, oracleCounts(g, sel))
					if err != nil {
						t.Fatalf("pattern %v policy %v: %v", q, policy, err)
					}
					if got := vals[0].(uint64); got != want {
						t.Errorf("pattern %v policy %v: morphed count %d, direct %d", q, policy, got, want)
					}
				}
			}
		}
	}
}

// TestConvertCountsMultiQuery morphs a whole motif-style query set at once
// (overlapping up-sets) and checks every query's converted count.
func TestConvertCountsMultiQuery(t *testing.T) {
	for _, g := range oracleGraphs(t) {
		bases := fourPatterns(t)
		queries := make([]*pattern.Pattern, len(bases))
		for i, b := range bases {
			queries[i] = b.AsVertexInduced()
		}
		d, err := BuildSDAG(queries)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := Select(context.Background(), d, queries, forceMorphCosts(queries), PolicyAny, false)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := sel.Convert(aggr.Count{}, oracleCounts(g, sel))
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			want := oracleCount(g, q)
			if got := vals[i].(uint64); got != want {
				t.Errorf("query %v: morphed %d, direct %d", q, got, want)
			}
		}
	}
}

// TestConvertCountsMixedVariantSelection uses randomized costs so the
// selection mixes edge- and vertex-induced alternatives, checking the
// recursive-substitution algebra (multiple alternative sets, §4.3).
func TestConvertCountsMixedVariantSelection(t *testing.T) {
	g := oracleGraphs(t)[1]
	r := rand.New(rand.NewSource(123))
	bases := fourPatterns(t)
	queries := make([]*pattern.Pattern, len(bases))
	for i, b := range bases {
		if i%2 == 0 {
			queries[i] = b.AsVertexInduced()
		} else {
			queries[i] = b.AsEdgeInduced()
		}
	}
	for trial := 0; trial < 10; trial++ {
		costs := func(n *Node) Costs {
			return Costs{E: r.Float64() * 100, V: r.Float64() * 100}
		}
		d, err := BuildSDAG(queries)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := Select(context.Background(), d, queries, additive(costs), PolicyAny, false)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := sel.Convert(aggr.Count{}, oracleCounts(g, sel))
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			want := oracleCount(g, q)
			if got := vals[i].(uint64); got != want {
				t.Fatalf("trial %d query %v: morphed %d, direct %d (mine=%v)", trial, q, got, want, sel.Mine)
			}
		}
	}
}

// TestConvertCountsLabeled exercises labeled morphing (the FSM case where
// labels multiply superpatterns).
func TestConvertCountsLabeled(t *testing.T) {
	g, err := dataset.ErdosRenyi(40, 7, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []*pattern.Pattern{pattern.FourStar(), pattern.Path(4), pattern.FourCycle()}
	for _, shape := range shapes {
		labels := make([]int32, shape.N())
		for i := range labels {
			labels[i] = int32(i % 2)
		}
		q := pattern.MustNew(shape.N(), shape.Edges(), pattern.WithLabels(labels))
		want := oracleCount(g, q)
		d, err := BuildSDAG([]*pattern.Pattern{q})
		if err != nil {
			t.Fatal(err)
		}
		sel, err := Select(context.Background(), d, []*pattern.Pattern{q}, forceMorphCosts([]*pattern.Pattern{q}), PolicyVertexOnly, false)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := sel.Convert(aggr.Count{}, oracleCounts(g, sel))
		if err != nil {
			t.Fatal(err)
		}
		if got := vals[0].(uint64); got != want {
			t.Errorf("labeled %v: morphed %d, direct %d", q, got, want)
		}
	}
}

// directMNI computes the full-MNI table of a pattern from oracle matches.
func directMNI(g *graph.Graph, p *pattern.Pattern) *aggr.Table {
	auts := canon.Automorphisms(p)
	tbl := aggr.NewTable(p.N())
	for _, m := range refmatch.Matches(g, p) {
		tbl.InsertAll(m, auts)
	}
	return tbl
}

// TestConvertMNI checks Algorithm 2 on MNI tables: the morphed table must
// equal the direct full-MNI table column for column.
func TestConvertMNI(t *testing.T) {
	g, err := dataset.ErdosRenyi(30, 6, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range fourPatterns(t) {
		if base.IsClique() {
			continue
		}
		q := base.AsEdgeInduced()
		d, err := BuildSDAG([]*pattern.Pattern{q})
		if err != nil {
			t.Fatal(err)
		}
		sel, err := Select(context.Background(), d, []*pattern.Pattern{q}, forceMorphCosts([]*pattern.Pattern{q}), PolicyVertexOnly, false)
		if err != nil {
			t.Fatal(err)
		}
		if !sel.Queries[0].Morphed {
			t.Fatalf("%v not morphed", q)
		}
		mined := make([]aggr.Value, len(sel.Mine))
		for i, c := range sel.Mine {
			mined[i] = directMNI(g, c.Pattern)
		}
		vals, err := sel.Convert(aggr.MNI{}, mined)
		if err != nil {
			t.Fatal(err)
		}
		got := vals[0].(*aggr.Table)
		want := directMNI(g, q)
		if !got.Equal(want) {
			t.Errorf("pattern %v: morphed MNI %v != direct %v", q, got, want)
		}
		if got.Support() != want.Support() {
			t.Errorf("pattern %v: morphed support %d != %d", q, got.Support(), want.Support())
		}
	}
}

// TestConvertMNILabeled is the Appendix A.1 scenario: a labeled
// edge-induced 4-star morphs into labeled vertex-induced superpatterns
// and the MNI table is reassembled by column permutation (Fig. 10).
func TestConvertMNILabeled(t *testing.T) {
	g, err := dataset.ErdosRenyi(35, 7, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	q := pattern.MustNew(4, [][2]int{{0, 1}, {0, 2}, {0, 3}},
		pattern.WithLabels([]int32{0, 0, 0, 1}))
	d, err := BuildSDAG([]*pattern.Pattern{q})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(context.Background(), d, []*pattern.Pattern{q}, forceMorphCosts([]*pattern.Pattern{q}), PolicyVertexOnly, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Mine) != 6 {
		t.Fatalf("alternative set size %d, want 6 (Fig. 16a)", len(sel.Mine))
	}
	mined := make([]aggr.Value, len(sel.Mine))
	for i, c := range sel.Mine {
		mined[i] = directMNI(g, c.Pattern)
	}
	vals, err := sel.Convert(aggr.MNI{}, mined)
	if err != nil {
		t.Fatal(err)
	}
	got := vals[0].(*aggr.Table)
	want := directMNI(g, q)
	if !got.Equal(want) {
		t.Errorf("labeled MNI conversion: %v != %v", got, want)
	}
}

// TestConvertErrorPaths exercises misuse: wrong mined length and
// non-invertible aggregation on an edge-induced alternative.
func TestConvertErrorPaths(t *testing.T) {
	q := pattern.FourCycle().AsVertexInduced()
	d, err := BuildSDAG([]*pattern.Pattern{q})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(context.Background(), d, []*pattern.Pattern{q}, forceMorphCosts([]*pattern.Pattern{q}), PolicyEdgeOnly, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Convert(aggr.Count{}, nil); err == nil {
		t.Error("short mined slice accepted")
	}
	// MNI cannot run through an edge-only (subtractive) selection.
	mined := make([]aggr.Value, len(sel.Mine))
	for i := range mined {
		mined[i] = aggr.NewTable(4)
	}
	if _, err := sel.Convert(aggr.MNI{}, mined); err == nil {
		t.Error("non-invertible aggregation accepted on subtractive plan")
	}
}

// TestRunnerCountsEndToEnd drives the full Fig. 5 pipeline with a real
// engine and compares morphed counts against baseline (no morphing) and
// the oracle.
func TestRunnerCountsEndToEnd(t *testing.T) {
	g, err := dataset.MiCo().Scaled(0.005).Generate()
	if err != nil {
		t.Fatal(err)
	}
	bases := fourPatterns(t)
	queries := make([]*pattern.Pattern, len(bases))
	for i, b := range bases {
		queries[i] = b.AsVertexInduced()
	}
	eng := peregrine.New(4)
	morphed := &Runner{Engine: eng}
	baseline := &Runner{Engine: eng, DisableMorphing: true}
	got, stats, err := morphed.CountsCtx(context.Background(), g, queries)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := baseline.CountsCtx(context.Background(), g, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if got[i] != want[i] {
			t.Errorf("query %v: morphed %d, baseline %d", queries[i], got[i], want[i])
		}
	}
	if stats.Selection == nil || stats.Mining == nil {
		t.Fatal("missing run stats")
	}
	if stats.Transform <= 0 {
		t.Error("transform time not recorded")
	}
}

// TestConvertExists checks the idempotent boolean aggregation through the
// additive conversion direction: morphed existence answers must match the
// oracle for both positive and negative queries.
func TestConvertExists(t *testing.T) {
	g := oracleGraphs(t)[0]
	for _, base := range fourPatterns(t) {
		if base.IsClique() {
			continue
		}
		q := base.AsEdgeInduced()
		d, err := BuildSDAG([]*pattern.Pattern{q})
		if err != nil {
			t.Fatal(err)
		}
		sel, err := Select(context.Background(), d, []*pattern.Pattern{q}, forceMorphCosts([]*pattern.Pattern{q}), PolicyVertexOnly, false)
		if err != nil {
			t.Fatal(err)
		}
		mined := make([]aggr.Value, len(sel.Mine))
		for i, c := range sel.Mine {
			mined[i] = oracleCount(g, c.Pattern) > 0
		}
		vals, err := sel.Convert(aggr.Exists{}, mined)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleCount(g, q) > 0
		if got := vals[0].(bool); got != want {
			t.Errorf("pattern %v: morphed exists %v, direct %v", q, got, want)
		}
	}
}

// TestConversionMemosStayBounded feeds ConversionMaps ten times the memo's
// capacity of distinct labeled pattern pairs, as a resident daemon under
// ever new labeled queries would, from several goroutines at once: the
// memo stays within canon.MemoCap, and evicted and resident pairs alike
// still answer with the uncached maps.
func TestConversionMemosStayBounded(t *testing.T) {
	pair := func(i int) (p, q *pattern.Pattern, all bool) {
		a, b := int32(i), int32(i+1)
		p = pattern.MustNew(2, [][2]int{{0, 1}}, pattern.WithLabels([]int32{a, b}))
		q = pattern.MustNew(3, [][2]int{{0, 1}, {1, 2}}, pattern.WithLabels([]int32{a, b, a}))
		return p, q, i%2 == 0
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 10*canon.MemoCap; i += workers {
				ConversionMaps(pair(i))
			}
		}(w)
	}
	wg.Wait()
	if size := convMapMemo.Len(); size > canon.MemoCap || size < canon.MemoCap/2 {
		t.Errorf("conversion memo holds %d entries after %d distinct pairs, want within (%d, %d]", size, 10*canon.MemoCap, canon.MemoCap/2, canon.MemoCap)
	}
	for _, i := range []int{0, 1, canon.MemoCap, 10*canon.MemoCap - 1} {
		p, q, all := pair(i)
		got, want := ConversionMaps(p, q, all), conversionMaps(p, q, all)
		if len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("pair %d: maps %v, uncached %v", i, got, want)
		}
	}
}
