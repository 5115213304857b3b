package bench

import (
	"context"
	"io"
	"time"

	"morphing/internal/canon"
	"morphing/internal/costmodel"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/plan"
)

// runAblation quantifies two design choices DESIGN.md calls out:
//
//  1. degree ordering — engines break symmetries with ID-based partial
//     orders, so relabeling vertices in ascending degree order shifts the
//     pruning onto hub candidate lists;
//  2. the cost model's high-degree restriction (§5.2) — the probabilistic
//     graph is built from the 95th-percentile subgraph rather than global
//     averages; the ablation scores how each variant ranks patterns by
//     measured cost.
func runAblation(ctx context.Context, cfg Config, w io.Writer) error {
	if err := ablateDegreeOrdering(ctx, cfg, w); err != nil {
		return err
	}
	return ablateCostModelRestriction(ctx, cfg, w)
}

func ablateDegreeOrdering(ctx context.Context, cfg Config, w io.Writer) error {
	csv(w, "section", "pattern", "original_s", "degree_ordered_s", "speedup",
		"original_setop_elems", "ordered_setop_elems")
	g, err := loadGraph(cfg, "MI")
	if err != nil {
		return err
	}
	ordered, _ := graph.SortByDegree(g)
	eng := peregrine.New(cfg.Threads)
	for _, np := range []pattern.Named{
		{Name: "triangle", Pattern: pattern.Triangle()},
		{Name: "4-clique", Pattern: pattern.FourClique()},
		{Name: "tailed-triangle-V", Pattern: pattern.TailedTriangle().AsVertexInduced()},
		{Name: "house", Pattern: pattern.House()},
	} {
		origCount, base, baseS, err := timedCount(ctx, eng, g, np.Pattern)
		if err != nil {
			return err
		}
		ordCount, ord, ordS, err := timedCount(ctx, eng, ordered, np.Pattern)
		if err != nil {
			return err
		}
		if origCount != ordCount {
			return errMismatch("MI", 0, 0, origCount, ordCount)
		}
		csv(w, "degree-order", np.Name, baseS, ordS, ratio(baseS, ordS),
			base.SetElems, ord.SetElems)
	}
	return nil
}

func timedCount(ctx context.Context, eng engine.Engine, g graph.Adjacency, p *pattern.Pattern) (uint64, *engine.Stats, float64, error) {
	start := time.Now()
	c, st, err := eng.CountCtx(ctx, g, p)
	return c, st, time.Since(start).Seconds(), err
}

// ablateCostModelRestriction scores how well each model variant orders
// the six 4-motifs by measured mining time: for every pattern pair, does
// the predicted order match the measured order? (Kendall-style pair
// agreement; 1.0 = perfect ranking.)
func ablateCostModelRestriction(ctx context.Context, cfg Config, w io.Writer) error {
	csv(w, "section", "model", "pair_agreement")
	g, err := loadGraph(cfg, "MI")
	if err != nil {
		return err
	}
	bases, err := canon.AllConnectedPatterns(4)
	if err != nil {
		return err
	}
	patterns := make([]*pattern.Pattern, 0, 2*len(bases))
	for _, b := range bases {
		patterns = append(patterns, b.AsEdgeInduced(), b.AsVertexInduced())
	}
	eng := peregrine.New(cfg.Threads)
	measured := make([]float64, len(patterns))
	for i, p := range patterns {
		_, _, s, err := timedCount(ctx, eng, g, p)
		if err != nil {
			return err
		}
		measured[i] = s
	}

	sum := graph.Summarize(g)
	restricted := costmodel.NewDefault(sum)
	// Ablated variant: erase the high-degree statistics so the model
	// falls back to whole-graph averages.
	plainSum := sum
	plainSum.HighN = 0
	plainSum.HighAvgDegree = 0
	plainSum.HighEdgeProb = 0
	plain := costmodel.NewDefault(plainSum)

	for _, m := range []struct {
		name  string
		model *costmodel.Model
	}{{"high-degree-restricted", restricted}, {"whole-graph", plain}} {
		predicted := make([]float64, len(patterns))
		for i, p := range patterns {
			pl, err := plan.Build(p)
			if err != nil {
				return err
			}
			predicted[i] = m.model.PlanCost(pl)
		}
		agree, total := 0, 0
		for i := range patterns {
			for j := i + 1; j < len(patterns); j++ {
				if measured[i] == measured[j] {
					continue
				}
				total++
				if (measured[i] < measured[j]) == (predicted[i] < predicted[j]) {
					agree++
				}
			}
		}
		csv(w, "cost-model", m.name, ratio(float64(agree), float64(total)))
	}
	return nil
}
