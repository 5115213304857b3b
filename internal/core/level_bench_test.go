package core_test

import (
	"context"
	"testing"

	"morphing/internal/apps/fsm"
	"morphing/internal/core"
	"morphing/internal/costmodel"
	"morphing/internal/dataset"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// fsmLevel3 is the workload of the two benchmarks below: the 3-edge
// candidate set of 3-FSM on MI x0.003 (support |V|/10) — hundreds of
// labeled patterns sharing prefixes, none of which morphs — and the
// per-match cost fsm.MineCtx gives the cost model.
func fsmLevel3(b *testing.B) (*graph.Graph, []*pattern.Pattern, float64) {
	b.Helper()
	g, err := dataset.MiCo().Scaled(0.003).Generate()
	if err != nil {
		b.Fatal(err)
	}
	_, st, err := fsm.Mine(g, peregrine.New(2), fsm.Options{MaxEdges: 3, MinSupport: g.NumVertices() / 10, Morph: true})
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

// BenchmarkSelectDecline is the same level's Algorithm 1 alone: nothing
// can fire, so past the cost function it is the decline bound.
func BenchmarkSelectDecline(b *testing.B) {
	g, level, perMatch := fsmLevel3(b)
	d, err := core.BuildSDAG(level)
	if err != nil {
		b.Fatal(err)
	}
	model := costmodel.New(graph.Summarize(g), costmodel.DefaultWeights())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, err := core.Select(d, level, core.DefaultCostFunc(model, perMatch), core.PolicyVertexOnly, core.SelectOptions{})
		if err != nil || len(sel.Mine) != len(level) {
			b.Fatalf("mined %d of %d candidates, err %v", len(sel.Mine), len(level), err)
		}
	}
}
