package bench

import (
	"context"
	"io"
	"time"

	"morphing/internal/apps/fsm"
	"morphing/internal/apps/sc"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// Fig. 13a/13b: subgraph counting on Peregrine over single patterns and
// pattern pairs from the Fig. 11a set — the converse of motif counting,
// where morphing must pay for superpatterns that are not in the query
// set.
func runFig13SC(ctx context.Context, cfg Config, w io.Writer) error {
	csv(w, "patterns", "graph",
		"baseline_s", "morphed_s", "speedup",
		"baseline_setop_elems", "morphed_setop_elems", "setop_reduction")
	set := fig11aSet()
	byName := map[string]*pattern.Pattern{}
	for _, np := range set {
		byName[np.Name] = np.Pattern
	}
	type workload struct {
		label  string
		names  []string
		graphs []string
	}
	heavyGraphs := graphsFor(cfg, 2, "MI", "MG", "PR", "OK", "FR")
	midGraphs := graphsFor(cfg, 2, "MI", "MG", "PR", "OK")
	light := []string{"MI"}
	workloads := []workload{
		{"p1", []string{"p1"}, heavyGraphs},
		{"p2", []string{"p2"}, heavyGraphs},
		{"p1+p2", []string{"p1", "p2"}, heavyGraphs},
		{"p4", []string{"p4"}, midGraphs},
		{"p5", []string{"p5"}, midGraphs},
		{"p4+p5", []string{"p4", "p5"}, midGraphs},
		{"p6", []string{"p6"}, light},
		{"p7", []string{"p7"}, light},
		{"p8", []string{"p8"}, light},
	}
	if cfg.Quick {
		workloads = workloads[:6]
	}
	for _, wl := range workloads {
		queries := make([]*pattern.Pattern, len(wl.names))
		for i, n := range wl.names {
			queries[i] = byName[n]
		}
		for _, name := range wl.graphs {
			g, err := loadGraph(cfg, name)
			if err != nil {
				return err
			}
			eng := peregrine.New(cfg.Threads)
			start := time.Now()
			base, bst, err := sc.CountCtx(ctx, g, queries, eng, false)
			if err != nil {
				return err
			}
			baseS := time.Since(start).Seconds()
			baseElems := bst.Mining.SetElems

			start = time.Now()
			morphed, mst, err := sc.CountCtx(ctx, g, queries, eng, true)
			if err != nil {
				return err
			}
			morphS := time.Since(start).Seconds()
			for i := range base {
				if base[i] != morphed[i] {
					return errMismatch(name, 0, i, base[i], morphed[i])
				}
			}
			csv(w, wl.label, name, baseS, morphS, ratio(baseS, morphS),
				baseElems, mst.Mining.SetElems,
				ratio(float64(baseElems), float64(mst.Mining.SetElems)))
		}
	}
	return nil
}

// Fig. 13c: FSM on Peregrine with morphing steering expensive labeled
// patterns toward vertex-induced variants.
func runFig13FSM(ctx context.Context, cfg Config, w io.Writer) error {
	csv(w, "workload", "graph", "min_support",
		"baseline_s", "morphed_s", "speedup", "frequent_patterns")
	type workload struct {
		label    string
		maxEdges int
		graphs   []string
	}
	workloads := []workload{
		{"3-FSM", 3, graphsFor(cfg, 1, "MI", "MG", "PR")},
		{"4-FSM", 4, []string{"MI"}},
	}
	for _, wl := range workloads {
		for _, name := range wl.graphs {
			g, err := loadGraph(cfg, name)
			if err != nil {
				return err
			}
			minSup := g.NumVertices() / 25
			if minSup < 2 {
				minSup = 2
			}
			opts := fsm.Options{MaxEdges: wl.maxEdges, MinSupport: minSup}
			start := time.Now()
			base, _, err := fsm.MineCtx(ctx, g, peregrine.New(cfg.Threads), opts)
			if err != nil {
				return err
			}
			baseS := time.Since(start).Seconds()

			opts.Morph = true
			start = time.Now()
			morphed, _, err := fsm.MineCtx(ctx, g, peregrine.New(cfg.Threads), opts)
			if err != nil {
				return err
			}
			morphS := time.Since(start).Seconds()
			if len(base) != len(morphed) {
				return errMismatch(name, wl.maxEdges, -1, uint64(len(base)), uint64(len(morphed)))
			}
			csv(w, wl.label, name, minSup, baseS, morphS, ratio(baseS, morphS), len(morphed))
		}
	}
	return nil
}
