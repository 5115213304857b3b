package core_test

import (
	"context"
	"slices"
	"sync"
	"testing"

	"morphing/internal/aggr"
	"morphing/internal/apps/fsm"
	"morphing/internal/core"
	"morphing/internal/costmodel"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// fsmLevel3 is the workload of the benchmarks below: the 3-edge candidate
// set of 3-FSM on MI x0.003 at support |V|/30 (the repo benchmark's
// fsm-labeled) — hundreds of labeled patterns sharing prefixes, none of
// which morphs — and the per-match cost fsm.MineCtx gives the cost model.
func fsmLevel3(b testing.TB) (*graph.Graph, []*pattern.Pattern, float64) {
	b.Helper()
	g, err := dataset.MiCo().Scaled(0.003).Generate()
	if err != nil {
		b.Fatal(err)
	}
	_, st, err := fsm.MineCtx(context.Background(), g, peregrine.New(2), fsm.Options{MaxEdges: 3, MinSupport: g.NumVertices() / 30, Morph: true})
	if err != nil || len(st.Runs) != 3 {
		b.Fatalf("3-FSM: %d levels, err %v", len(st.Runs), err)
	}
	var level []*pattern.Pattern
	for _, q := range st.Runs[2].Selection.Queries {
		level = append(level, q.Pattern)
	}
	return g, level, float64(g.NumVertices()) / 1000
}

// BenchmarkMNILevel is one FSM level end to end through MNITablesCtx:
// transform (a Select that declines), one merged streaming pass with a sink
// per candidate, aggregation and conversion.
func BenchmarkMNILevel(b *testing.B) {
	g, level, perMatch := fsmLevel3(b)
	r := &core.Runner{Engine: peregrine.New(2), PerMatchCost: perMatch}
	b.ReportAllocs()
	b.ResetTimer()
	var passes, matches uint64
	for i := 0; i < b.N; i++ {
		tables, st, err := r.MNITablesCtx(context.Background(), g, level)
		if err != nil || len(tables) != len(level) {
			b.Fatalf("%d tables for %d candidates, err %v", len(tables), len(level), err)
		}
		passes, matches = st.Mining.TriePasses, st.Mining.Matches
	}
	b.ReportMetric(float64(passes), "passes/op")
	b.ReportMetric(float64(matches), "matches/op")
}

// TestDecliningLevelBuildsNoSuperpattern: a level none of whose candidates
// Algorithm 1 morphs — every FSM level on record — costs the S-DAG its
// candidates and not one superpattern.
func TestDecliningLevelBuildsNoSuperpattern(t *testing.T) {
	g, level, perMatch := fsmLevel3(t)
	r := &core.Runner{Engine: peregrine.New(2), PerMatchCost: perMatch}
	sel, err := r.Transform(g, level, aggr.MNI{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range sel.Queries {
		if q.Morphed {
			t.Fatalf("%v morphed: the level no longer declines, pick another for this test", q.Pattern)
		}
	}
	if built := sel.SDAG.Materialized(); built != len(level) {
		t.Fatalf("S-DAG holds %d structures for %d declined candidates", built, len(level))
	}
}

// TestPlanMemoSharedByPlanningAndSelection: the labelings of one shape
// are planned (PlanPattern, merged into tries and mined) and priced
// (Select under the cost model) from several goroutines at once. They all
// read the one plan the shape memo holds; under -race a write to its
// slices by anyone shows here.
func TestPlanMemoSharedByPlanningAndSelection(t *testing.T) {
	g, err := dataset.ErdosRenyi(45, 7, 3, 29)
	if err != nil {
		t.Fatal(err)
	}
	var labelings []*pattern.Pattern
	for code := 0; code < 81; code++ {
		l := []int32{int32(code % 3), int32(code / 3 % 3), int32(code / 9 % 3), int32(code / 27)}
		labelings = append(labelings, pattern.MustNew(4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 3}}, pattern.WithLabels(l)))
	}
	eng := peregrine.New(1)
	want, _, err := eng.CountAllCtx(context.Background(), g, labelings)
	if err != nil {
		t.Fatal(err)
	}
	model := costmodel.NewDefault(graph.Summarize(g))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				if w%2 == 0 {
					tr, err := engine.BuildTrie(eng, g, labelings)
					if err != nil {
						t.Error(err)
						return
					}
					opts, o := eng.ExecConfig()
					got, _, err := engine.BacktrackTrieCtx(context.Background(), g, tr, opts, o)
					if err != nil || !slices.Equal(got, want) {
						t.Errorf("merged counts %v (err %v), per pattern %v", got, err, want)
					}
					continue
				}
				d, err := core.BuildSDAG(labelings)
				if err != nil {
					t.Error(err)
					return
				}
				sel, err := core.Select(context.Background(), d, labelings, core.DefaultCostFunc(model, 0), core.PolicyAny, false)
				if err != nil || len(sel.Queries) != len(labelings) {
					t.Errorf("Select: %d queries, err %v", len(sel.Queries), err)
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkTransformLevel is the same level's whole Runner.Transform —
// S-DAG, cost model, a Select that declines — and how much of the S-DAG it
// built: the candidates and not one superpattern.
func BenchmarkTransformLevel(b *testing.B) {
	g, level, perMatch := fsmLevel3(b)
	r := &core.Runner{Engine: peregrine.New(2), PerMatchCost: perMatch}
	b.ReportAllocs()
	b.ResetTimer()
	var nodes int
	for i := 0; i < b.N; i++ {
		sel, err := r.Transform(g, level, aggr.MNI{})
		if err != nil || len(sel.Mine) != len(level) {
			b.Fatalf("mined %d of %d candidates, err %v", len(sel.Mine), len(level), err)
		}
		nodes = sel.SDAG.Materialized()
	}
	b.ReportMetric(float64(nodes), "sdag_nodes/op")
}

// BenchmarkSelectDecline is the same level's Algorithm 1 alone: nothing
// can fire, so past the cost function it is the decline bound — and must
// allocate no more than the 326 objects per call it did when a set cost the
// sum of its patterns.
func BenchmarkSelectDecline(b *testing.B) {
	g, level, perMatch := fsmLevel3(b)
	d, err := core.BuildSDAG(level)
	if err != nil {
		b.Fatal(err)
	}
	model := costmodel.New(graph.Summarize(g), costmodel.DefaultWeights())
	benchSelect(b, 326, func() (*core.Selection, error) {
		return core.Select(context.Background(), d, level, core.DefaultCostFunc(model, perMatch), core.PolicyVertexOnly, false)
	}, len(level))
}

// BenchmarkSelectAccept is the opposite case: the six vertex-induced
// 4-motifs on MG x0.003 (the repo benchmark's mc4-morph), every one of which
// morphs — candidate scoring against the refcounted levels of S, the
// accepted replacements, the set re-priced — into six edge-induced patterns.
func BenchmarkSelectAccept(b *testing.B) {
	g, err := dataset.MAG().Scaled(0.003).Generate()
	if err != nil {
		b.Fatal(err)
	}
	queries := named(b, motifs4...)
	model := costmodel.NewDefault(graph.Summarize(g))
	benchSelect(b, 270, func() (*core.Selection, error) {
		d, err := core.BuildSDAG(queries)
		if err != nil {
			return nil, err
		}
		return core.Select(context.Background(), d, queries, core.DefaultCostFunc(model, 0), core.PolicyAny, false)
	}, 6)
}

// benchSelect times sel, which must mine `mined` patterns, and fails the
// benchmark when one call allocates more than maxAllocs objects.
func benchSelect(b *testing.B, maxAllocs float64, sel func() (*core.Selection, error), mined int) {
	run := func() {
		s, err := sel()
		if err != nil || len(s.Mine) != mined {
			b.Fatalf("mined %d patterns, want %d, err %v", len(s.Mine), mined, err)
		}
	}
	if allocs := testing.AllocsPerRun(5, run); allocs > maxAllocs {
		b.Fatalf("%.0f allocations per call, bound %.0f", allocs, maxAllocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
