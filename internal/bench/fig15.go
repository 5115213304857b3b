package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"morphing/internal/aggr"
	"morphing/internal/apps/sc"
	"morphing/internal/apps/se"
	"morphing/internal/autozero"
	"morphing/internal/canon"
	"morphing/internal/core"
	"morphing/internal/costmodel"
	"morphing/internal/graph"
	"morphing/internal/graphpi"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// Fig. 15a/15b: subgraph enumeration with on-the-fly conversion. The
// workload streams all edge-induced 4-vertex patterns (4V_E) and the p4
// 5-cycle through the paper's weight filter; morphing mines vertex-
// induced alternatives (fewer matches -> fewer filter UDF calls) and
// converts surviving matches on the fly.
func runFig15OnTheFly(ctx context.Context, cfg Config, w io.Writer) error {
	csv(w, "workload", "graph",
		"baseline_s", "morphed_s", "speedup",
		"baseline_udf_calls", "morphed_udf_calls", "udf_reduction",
		"delivered")
	motifs4, err := canon.AllConnectedPatterns(4)
	if err != nil {
		return err
	}
	p4, err := pattern.ByName("p4")
	if err != nil {
		return err
	}
	type workload struct {
		label   string
		queries []*pattern.Pattern
		graphs  []string
	}
	workloads := []workload{
		{"4V_E", motifs4, graphsFor(cfg, 1, "MI", "PR")},
		{"pE4", []*pattern.Pattern{p4}, []string{"MI"}},
	}
	for _, wl := range workloads {
		for _, name := range wl.graphs {
			g, err := loadGraph(cfg, name)
			if err != nil {
				return err
			}
			weights := se.NewWeights(g, 0, 1, cfg.Seed)
			eng := peregrine.New(cfg.Threads)
			start := time.Now()
			base, err := se.EnumerateCtx(ctx, g, eng, wl.queries, weights.WithinOneStd, nil, se.Options{})
			if err != nil {
				return err
			}
			baseS := time.Since(start).Seconds()

			// Two morphed rows: the cost model's own decision (profiled
			// filter cost) and a forced morph (high per-match cost hint),
			// making the §7.3 trade visible even where the model declines
			// it at laptop scale.
			for _, mode := range []struct {
				label string
				cost  float64
			}{{"model", 0}, {"forced", 50}} {
				start = time.Now()
				morphed, err := se.EnumerateCtx(ctx, g, eng, wl.queries, weights.WithinOneStd, nil,
					se.Options{Morph: true, PerMatchCost: mode.cost})
				if err != nil {
					return err
				}
				morphS := time.Since(start).Seconds()
				var delivered uint64
				for i := range wl.queries {
					if base.Delivered[i] != morphed.Delivered[i] {
						return errMismatch(name, 15, i, base.Delivered[i], morphed.Delivered[i])
					}
					delivered += morphed.Delivered[i]
				}
				// The filter runs once per mined match.
				csv(w, wl.label+"/"+mode.label, name, baseS, morphS, ratio(baseS, morphS),
					base.Stats.Matches, morphed.Stats.Matches,
					ratio(float64(base.Stats.Matches), float64(morphed.Stats.Matches)),
					delivered)
			}
		}
	}
	return nil
}

// Fig. 15c/15d: 7-vertex patterns pV9/pV10 on METIS-style partitions of
// PR and OK (§7.4 controls workload size by dropping cross-partition
// edges).
func runFig15LargePeregrine(ctx context.Context, cfg Config, w io.Writer) error {
	return runFig15Large(ctx, cfg, w, "Peregrine")
}

func runFig15LargeGraphPi(ctx context.Context, cfg Config, w io.Writer) error {
	return runFig15Large(ctx, cfg, w, "GraphPi")
}

func runFig15Large(ctx context.Context, cfg Config, w io.Writer, engineName string) error {
	csv(w, "pattern", "graph", "partitions", "baseline_s", "morphed_s", "speedup")
	p9, err := pattern.ByName("p9")
	if err != nil {
		return err
	}
	p10, err := pattern.ByName("p10")
	if err != nil {
		return err
	}
	for _, np := range []pattern.Named{
		{Name: "pV9", Pattern: p9.AsVertexInduced()},
		{Name: "pV10", Pattern: p10.AsVertexInduced()},
	} {
		for _, name := range graphsFor(cfg, 1, "PR", "OK") {
			g, err := loadLargePatternGraph(cfg, name)
			if err != nil {
				return err
			}
			// §7.4 controls the workload by partitioning; parts around a
			// thousand vertices keep 7-vertex mining tractable while still
			// letting it dominate fixed costs.
			parts := g.NumVertices()/1200 + 1
			subs, err := graph.Partition(g, parts)
			if err != nil {
				return err
			}
			var baseS, morphS float64
			for _, sub := range subs {
				b, m, err := runLargeOnPartition(ctx, cfg, engineName, sub, np.Pattern)
				if err != nil {
					return err
				}
				baseS += b
				morphS += m
			}
			csv(w, np.Name, name, parts, baseS, morphS, ratio(baseS, morphS))
		}
	}
	return nil
}

// runLargeOnPartition mines one 7-vertex vertex-induced pattern inside a
// partition, baseline vs morphed, returning the two times.
func runLargeOnPartition(ctx context.Context, cfg Config, engineName string, g graph.Adjacency, p *pattern.Pattern) (float64, float64, error) {
	queries := []*pattern.Pattern{p}
	switch engineName {
	case "Peregrine":
		eng := peregrine.New(cfg.Threads)
		start := time.Now()
		base, _, err := sc.CountCtx(ctx, g, queries, eng, false)
		if err != nil {
			return 0, 0, err
		}
		baseS := time.Since(start).Seconds()
		start = time.Now()
		morphed, _, err := sc.CountCtx(ctx, g, queries, eng, true)
		if err != nil {
			return 0, 0, err
		}
		morphS := time.Since(start).Seconds()
		if base[0] != morphed[0] {
			return 0, 0, errMismatch(engineName, 7, 0, base[0], morphed[0])
		}
		return baseS, morphS, nil
	case "GraphPi":
		eng := graphpi.New(cfg.Threads)
		start := time.Now()
		base, _, err := sc.CountBaselineWithFilter(ctx, g, queries, eng)
		if err != nil {
			return 0, 0, err
		}
		baseS := time.Since(start).Seconds()
		start = time.Now()
		morphed, _, err := sc.CountCtx(ctx, g, queries, eng, true)
		if err != nil {
			return 0, 0, err
		}
		morphS := time.Since(start).Seconds()
		if base[0] != morphed[0] {
			return 0, 0, errMismatch(engineName, 7, 0, base[0], morphed[0])
		}
		return baseS, morphS, nil
	default:
		return 0, 0, fmt.Errorf("bench: unknown large-pattern engine %q", engineName)
	}
}

// Fig. 15e: the space of alternative pattern sets for 5-motif counting on
// MiCo and MAG (quick mode: 4-motifs, whose 32 assignments are all run).
// Every sampled variant assignment is executed and timed — the fastest of
// three passes, seven in quick mode, since one pass of a small set is at the
// mercy of this box's noise; the row flags mark the original query set and
// the set the cost model selects. Correctness: every assignment must
// convert to identical motif counts.
func runFig15CostModel(ctx context.Context, cfg Config, w io.Writer) error {
	csv(w, "graph", "assignment", "time_s", "is_query_set", "is_model_choice")
	motifSize, passes := 5, 3
	samples := cfg.Samples
	if samples == 0 {
		samples = 250
	}
	if cfg.Quick {
		motifSize, passes = 4, 7
		if cfg.Samples == 0 {
			samples = 40
		}
	}
	bases, err := canon.AllConnectedPatterns(motifSize)
	if err != nil {
		return err
	}
	queries := make([]*pattern.Pattern, len(bases))
	for i, b := range bases {
		queries[i] = b.AsVertexInduced()
	}
	for _, name := range []string{"MI", "MG"} {
		g, err := loadGraph(cfg, name)
		if err != nil {
			return err
		}
		d, err := core.BuildSDAG(queries)
		if err != nil {
			return err
		}

		// The model's choice, identified by its variant multiset.
		model := costmodel.NewDefault(graph.Summarize(g))
		sel, err := core.Select(ctx, d, queries, core.DefaultCostFunc(model, 0), core.PolicyAny, false)
		if err != nil {
			return err
		}
		chosenKey := assignmentKey(sel.Mine)

		eng := autozero.New(cfg.Threads)
		timed := func(choices []core.Choice) ([]uint64, float64, error) {
			ps := make([]*pattern.Pattern, len(choices))
			for i, c := range choices {
				ps[i] = c.Pattern
			}
			var counts []uint64
			best := math.Inf(1)
			for pass := 0; pass < passes; pass++ {
				start := time.Now()
				if counts, _, err = eng.CountAllCtx(ctx, g, ps); err != nil {
					return nil, 0, err
				}
				best = min(best, time.Since(start).Seconds())
			}
			return counts, best, nil
		}
		sels, err := core.EnumerateAssignments(d, queries, samples, cfg.Seed)
		if err != nil {
			return err
		}
		var ref []aggr.Value
		var times []float64
		var chosenTime, queryTime float64
		for ai, s := range sels {
			counts, elapsed, err := timed(s.Mine)
			if err != nil {
				return err
			}
			mined := make([]aggr.Value, len(counts))
			for i, c := range counts {
				mined[i] = c
			}
			converted, err := s.Convert(aggr.Count{}, mined)
			if err != nil {
				return err
			}
			if ref == nil {
				ref = converted
			} else {
				for i := range ref {
					if ref[i] != converted[i] {
						return errMismatch(name, 15, i, ref[i].(uint64), converted[i].(uint64))
					}
				}
			}
			isQuery := ai == 0 // EnumerateAssignments emits the all-V set first
			isChosen := assignmentKey(s.Mine) == chosenKey
			if isQuery {
				queryTime = elapsed
			}
			if isChosen {
				chosenTime = elapsed
			}
			times = append(times, elapsed)
			csv(w, name, ai, elapsed, isQuery, isChosen)
		}
		if chosenTime == 0 {
			// The model's choice was not among the samples (it may mine a
			// structure in both variants); time it explicitly.
			if _, chosenTime, err = timed(sel.Mine); err != nil {
				return err
			}
			csv(w, name, "model", chosenTime, false, true)
		}
		sort.Float64s(times)
		fmt.Fprintf(w, "# %s assignments=%d best=%.4fs worst=%.4fs query_set=%.4fs model_choice=%.4fs within_optimal=%.1f%%\n",
			name, len(times), times[0], times[len(times)-1], queryTime, chosenTime,
			100*ratio(chosenTime-times[0], times[0]))
	}
	return nil
}

// assignmentKey fingerprints a choice list by structure/variant pairs.
func assignmentKey(choices []core.Choice) string {
	pairs := make([]string, 0, len(choices))
	for _, c := range choices {
		v := c.Variant
		if c.Node.Pattern.IsClique() {
			v = pattern.EdgeInduced
		}
		pairs = append(pairs, fmt.Sprintf("%d/%d", c.Node.ID, v))
	}
	sort.Strings(pairs)
	return fmt.Sprint(pairs)
}

// runTransformOverhead validates the §7 claim that pattern transformation
// is negligible: S-DAG build + selection for 4- and 5-vertex query sets,
// compared against the mining time of the smallest workload.
func runTransformOverhead(ctx context.Context, cfg Config, w io.Writer) error {
	csv(w, "query_set", "patterns", "sdag_nodes", "transform_s", "mining_s", "transform_pct")
	g, err := loadGraph(cfg, "MI")
	if err != nil {
		return err
	}
	for _, size := range []int{4, 5} {
		bases, err := canon.AllConnectedPatterns(size)
		if err != nil {
			return err
		}
		queries := make([]*pattern.Pattern, len(bases))
		for i, b := range bases {
			queries[i] = b.AsVertexInduced()
		}
		r := &core.Runner{Engine: peregrine.New(cfg.Threads)}
		start := time.Now()
		counts, stats, err := r.CountsCtx(ctx, g, queries)
		if err != nil {
			return err
		}
		total := time.Since(start).Seconds()
		_ = counts
		transformS := stats.Transform.Seconds() + stats.Convert.Seconds()
		csv(w, fmt.Sprintf("%d-MC", size), len(queries), stats.Selection.SDAG.Len(),
			transformS, total-transformS, pct(transformS, total))
	}
	return nil
}
