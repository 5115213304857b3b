package bench

import (
	"context"
	"io"
	"time"

	"morphing/internal/apps/sc"
	"morphing/internal/bigjoin"
	"morphing/internal/engine"
	"morphing/internal/graphpi"
	"morphing/internal/pattern"
)

// Fig. 14: eliminating Filter UDFs on engines without native
// vertex-induced support. Baseline: match edge-induced + Filter UDF
// (probing for extra edges on every match). Morphed: compute the
// vertex-induced counts from edge-induced alternatives, UDF-free.
// The branch columns reproduce Fig. 14c/14d: we count the data-dependent
// work (set-element comparisons + filter probes) the hardware counters
// measured in the paper.

func runFig14GraphPi(ctx context.Context, cfg Config, w io.Writer) error {
	workloads := fig14Workloads(cfg, [][]string{
		{"p1"}, {"p1", "p2"}, {"p4"}, {"p5"}, {"p4", "p5"},
	})
	return runFig14(ctx, cfg, w, workloads, func() engine.Engine { return graphpi.New(cfg.Threads) })
}

func runFig14BigJoin(ctx context.Context, cfg Config, w io.Writer) error {
	workloads := fig14Workloads(cfg, [][]string{
		{"p1"}, {"p2"}, {"p1", "p2"},
	})
	return runFig14(ctx, cfg, w, workloads, func() engine.Engine { return bigjoin.New(cfg.Threads) })
}

type fig14Workload struct {
	label   string
	queries []*pattern.Pattern
	graphs  []string
}

func fig14Workloads(cfg Config, names [][]string) []fig14Workload {
	byName := map[string]*pattern.Pattern{}
	for _, np := range fig11aSet() {
		byName[np.Name] = np.Pattern
	}
	var out []fig14Workload
	for _, group := range names {
		label := group[0]
		queries := []*pattern.Pattern{byName[group[0]]}
		for _, n := range group[1:] {
			label += "+" + n
			queries = append(queries, byName[n])
		}
		graphs := graphsFor(cfg, 2, "MI", "MG", "PR", "OK")
		if len(queries) > 0 && queries[0].N() >= 5 {
			graphs = graphsFor(cfg, 1, "MI", "MG", "PR")
		}
		out = append(out, fig14Workload{label: label, queries: queries, graphs: graphs})
	}
	return out
}

func runFig14(ctx context.Context, cfg Config, w io.Writer, workloads []fig14Workload, mk func() engine.Engine) error {
	csv(w, "patterns", "graph",
		"filter_s", "morphed_s", "speedup",
		"filter_branches", "morphed_branches", "branch_reduction",
		"filter_udf_calls")
	for _, wl := range workloads {
		for _, name := range wl.graphs {
			g, err := loadGraph(cfg, name)
			if err != nil {
				return err
			}
			eng := mk()
			start := time.Now()
			base, bst, err := sc.CountBaselineWithFilter(ctx, g, wl.queries, eng)
			if err != nil {
				return err
			}
			baseS := time.Since(start).Seconds()
			// Data-dependent branches: filter probes plus merge
			// comparisons.
			baseBranches := bst.Branches + bst.SetElems

			start = time.Now()
			morphed, mst, err := sc.CountCtx(ctx, g, wl.queries, eng, true)
			if err != nil {
				return err
			}
			morphS := time.Since(start).Seconds()
			morphBranches := mst.Mining.Branches + mst.Mining.SetElems
			for i := range base {
				if base[i] != morphed[i] {
					return errMismatch(name, 14, i, base[i], morphed[i])
				}
			}
			csv(w, wl.label, name, baseS, morphS, ratio(baseS, morphS),
				baseBranches, morphBranches,
				ratio(float64(baseBranches), float64(morphBranches)),
				bst.UDFCalls)
		}
	}
	return nil
}
