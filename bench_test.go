// Benchmarks regenerating the paper's figures as testing.B targets, one
// per table/figure of the evaluation (Section 7) plus the Section 3
// profiling. Each benchmark runs a small-scale instance of the figure's
// workload; the CSV-producing drivers behind them live in internal/bench
// and cmd/morphbench. Custom metrics report the paper's headline ratios
// (speedup, set-op reduction, UDF reduction, branch reduction) so
// `go test -bench` output directly mirrors the figures.
package morphing

import (
	"context"
	"fmt"
	"io"
	"testing"

	"morphing/internal/apps/fsm"
	"morphing/internal/apps/mc"
	"morphing/internal/apps/sc"
	"morphing/internal/apps/se"
	"morphing/internal/autozero"
	"morphing/internal/bench"
	"morphing/internal/bigjoin"
	"morphing/internal/canon"
	"morphing/internal/core"
	"morphing/internal/costmodel"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/graphpi"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// benchGraph memoizes the benchmark data graphs.
var benchGraphs = map[string]*graph.Graph{}

func benchGraph(b *testing.B, name string, scale float64) *graph.Graph {
	b.Helper()
	key := fmt.Sprintf("%s@%v", name, scale)
	if g, ok := benchGraphs[key]; ok {
		return g
	}
	r, err := dataset.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := r.Scaled(scale).Generate()
	if err != nil {
		b.Fatal(err)
	}
	benchGraphs[key] = g
	return g
}

func reportSpeedup(b *testing.B, baseline, morphed float64, metric string) {
	if morphed > 0 {
		b.ReportMetric(baseline/morphed, metric)
	}
}

// BenchmarkFig12Peregrine regenerates Fig. 12a/12c: 4-motif counting on a
// MiCo-style graph, baseline vs morphed, on the Peregrine model.
func BenchmarkFig12Peregrine(b *testing.B) {
	g := benchGraph(b, "MI", 0.004)
	benchMotifs(b, g, peregrine.New(0))
}

// BenchmarkFig12AutoZero regenerates Fig. 12b/12d on the AutoZero model
// (merged schedules).
func BenchmarkFig12AutoZero(b *testing.B) {
	g := benchGraph(b, "MI", 0.004)
	benchMotifs(b, g, autozero.New(0))
}

func benchMotifs(b *testing.B, g *graph.Graph, eng engine.Engine) {
	var baseElems, morphElems uint64
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := mc.CountCtx(context.Background(), g, 4, eng, false)
			if err != nil {
				b.Fatal(err)
			}
			baseElems = res.Stats.Mining.SetElems
		}
	})
	b.Run("morphed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := mc.CountCtx(context.Background(), g, 4, eng, true)
			if err != nil {
				b.Fatal(err)
			}
			morphElems = res.Stats.Mining.SetElems
		}
		reportSpeedup(b, float64(baseElems), float64(morphElems), "setop-reduction")
	})
}

// BenchmarkFig13SC regenerates Fig. 13a/13b: counting the pV1+pV2 pair
// where superpatterns are NOT part of the query set.
func BenchmarkFig13SC(b *testing.B) {
	g := benchGraph(b, "MI", 0.004)
	queries := []*pattern.Pattern{
		pattern.TailedTriangle().AsVertexInduced(),
		pattern.ChordalFourCycle().AsVertexInduced(),
	}
	eng := peregrine.New(0)
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := sc.CountCtx(context.Background(), g, queries, eng, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("morphed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := sc.CountCtx(context.Background(), g, queries, eng, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig13FSM regenerates Fig. 13c: 3-FSM on a labeled MiCo-style
// graph.
func BenchmarkFig13FSM(b *testing.B) {
	g := benchGraph(b, "MI", 0.002)
	minSup := g.NumVertices() / 25
	for _, mode := range []struct {
		name  string
		morph bool
	}{{"baseline", false}, {"morphed", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := fsm.MineCtx(context.Background(), g, peregrine.New(0), fsm.Options{
					MaxEdges: 3, MinSupport: minSup, Morph: mode.morph,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig14GraphPi regenerates Fig. 14a/14c: Filter-UDF baseline vs
// morphed vertex-induced counting on the GraphPi model.
func BenchmarkFig14GraphPi(b *testing.B) {
	benchFilterElimination(b, graphpi.New(0))
}

// BenchmarkFig14BigJoin regenerates Fig. 14b/14d on the BigJoin model.
func BenchmarkFig14BigJoin(b *testing.B) {
	benchFilterElimination(b, bigjoin.New(0))
}

func benchFilterElimination(b *testing.B, eng sc.FilterEngine) {
	g := benchGraph(b, "MI", 0.004)
	queries := []*pattern.Pattern{pattern.TailedTriangle().AsVertexInduced()}
	var baseBranches, morphBranches uint64
	b.Run("filter-udf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, st, err := sc.CountBaselineWithFilter(context.Background(), g, queries, eng)
			if err != nil {
				b.Fatal(err)
			}
			baseBranches = st.Branches + st.SetElems
		}
	})
	b.Run("morphed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, st, err := sc.CountCtx(context.Background(), g, queries, eng, true)
			if err != nil {
				b.Fatal(err)
			}
			morphBranches = st.Mining.Branches + st.Mining.SetElems
		}
		reportSpeedup(b, float64(baseBranches), float64(morphBranches), "branch-reduction")
	})
}

// BenchmarkFig15OnTheFly regenerates Fig. 15a/15b: subgraph enumeration
// with on-the-fly conversion of vertex-induced alternative streams.
func BenchmarkFig15OnTheFly(b *testing.B) {
	g := benchGraph(b, "MI", 0.004)
	queries := []*pattern.Pattern{pattern.FourCycle(), pattern.Path(4)}
	w := se.NewWeights(g, 0, 1, 1)
	eng := peregrine.New(0)
	var baseUDF, morphUDF uint64
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := se.EnumerateCtx(context.Background(), g, eng, queries, w.WithinOneStd, nil, se.Options{})
			if err != nil {
				b.Fatal(err)
			}
			baseUDF = res.Stats.UDFCalls
		}
	})
	b.Run("morphed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := se.EnumerateCtx(context.Background(), g, eng, queries, w.WithinOneStd, nil,
				se.Options{Morph: true, PerMatchCost: 50})
			if err != nil {
				b.Fatal(err)
			}
			morphUDF = res.Stats.UDFCalls
		}
		reportSpeedup(b, float64(baseUDF), float64(morphUDF), "udf-reduction")
	})
}

// BenchmarkFig15Large regenerates Fig. 15c: the 7-vertex pV9 pattern on a
// partition of a (degree-thinned; see internal/bench) Products-style
// graph.
func BenchmarkFig15Large(b *testing.B) {
	r, err := dataset.ByName("PR")
	if err != nil {
		b.Fatal(err)
	}
	r = r.Scaled(0.0008)
	r.AvgDegree, r.TriangleP = 8, 0.15
	g, err := r.Generate()
	if err != nil {
		b.Fatal(err)
	}
	parts, err := graph.Partition(g, g.NumVertices()/400+1)
	if err != nil {
		b.Fatal(err)
	}
	sub := parts[0]
	p9, err := pattern.ByName("p9")
	if err != nil {
		b.Fatal(err)
	}
	q := []*pattern.Pattern{p9.AsVertexInduced()}
	eng := peregrine.New(0)
	for _, mode := range []struct {
		name  string
		morph bool
	}{{"baseline", false}, {"morphed", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := sc.CountCtx(context.Background(), sub, q, eng, mode.morph); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig15CostModel regenerates Fig. 15e at benchmark scale: the
// time spread across sampled alternative assignments for 4-motif
// counting, with the cost model's selection as the reference point.
func BenchmarkFig15CostModel(b *testing.B) {
	g := benchGraph(b, "MI", 0.004)
	bases, err := canon.AllConnectedPatterns(4)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]*pattern.Pattern, len(bases))
	for i, p := range bases {
		queries[i] = p.AsVertexInduced()
	}
	d, err := core.BuildSDAG(queries)
	if err != nil {
		b.Fatal(err)
	}
	assignments := core.EnumerateAssignments(d, 4, 1)
	eng := autozero.New(0)
	for ai, a := range assignments {
		ps := make([]*pattern.Pattern, len(a.Choices))
		for i, c := range a.Choices {
			ps[i] = c.Pattern
		}
		name := "sampled"
		switch ai {
		case 0:
			name = "query-set"
		case 1:
			name = "all-edge-induced"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.CountAllCtx(context.Background(), g, ps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4Profiles regenerates the Fig. 4 motivation rows (instrumented
// breakdowns) through the bench drivers.
func BenchmarkFig4Profiles(b *testing.B) {
	cfg := bench.Config{Scale: 0.0012, Threads: 0, Seed: 1, Quick: true}
	for _, id := range []string{"4c", "4d"} {
		e, err := bench.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("fig"+id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Run(cfg, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransformOverhead measures the §7 claim that pattern
// transformation is negligible: S-DAG build plus Algorithm 1 for the
// 21-pattern 5-motif query set.
func BenchmarkTransformOverhead(b *testing.B) {
	g := benchGraph(b, "MI", 0.004)
	bases, err := canon.AllConnectedPatterns(5)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]*pattern.Pattern, len(bases))
	for i, p := range bases {
		queries[i] = p.AsVertexInduced()
	}
	model := costmodel.NewDefault(graph.Summarize(g))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := core.BuildSDAG(queries)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Select(context.Background(), d, queries, core.DefaultCostFunc(model, 0), core.PolicyAny, core.SelectOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngines compares raw engine throughput on one pattern — the
// system-level differences of observation 4 made visible.
func BenchmarkEngines(b *testing.B) {
	g := benchGraph(b, "MI", 0.004)
	p := pattern.ChordalFourCycle()
	for _, eng := range []engine.Engine{
		peregrine.New(0), autozero.New(0), graphpi.New(0), bigjoin.New(0),
	} {
		b.Run(eng.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.CountCtx(context.Background(), g, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
