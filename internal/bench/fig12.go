package bench

import (
	"context"
	"io"
	"time"

	"morphing/internal/apps/mc"
	"morphing/internal/autozero"
	"morphing/internal/engine"
	"morphing/internal/peregrine"
)

// Fig. 12: motif counting with and without Subgraph Morphing on the
// Peregrine and AutoZero models. One CSV covers both the speedup
// subfigures (12a/12b) and the set-operation-reduction subfigures
// (12c/12d): the latter are the *_setop_elems columns.

func runFig12Peregrine(ctx context.Context, cfg Config, w io.Writer) error {
	return runFig12(ctx, cfg, w, func() engine.Engine { return peregrine.New(cfg.Threads) })
}

func runFig12AutoZero(ctx context.Context, cfg Config, w io.Writer) error {
	return runFig12(ctx, cfg, w, func() engine.Engine { return autozero.New(cfg.Threads) })
}

func runFig12(ctx context.Context, cfg Config, w io.Writer, mk func() engine.Engine) error {
	csv(w, "k", "graph", "engine",
		"baseline_s", "morphed_s", "speedup",
		"baseline_setop_elems", "morphed_setop_elems", "setop_reduction")
	type workload struct {
		k      int
		graphs []string
	}
	workloads := []workload{
		{3, graphsFor(cfg, 3, "MI", "MG", "PR", "OK", "FR")},
		{4, graphsFor(cfg, 2, "MI", "MG", "PR", "OK", "FR")},
		{5, graphsFor(cfg, 1, "MI", "MG", "PR")},
	}
	for _, wl := range workloads {
		for _, name := range wl.graphs {
			g, err := loadGraph(cfg, name)
			if err != nil {
				return err
			}
			eng := mk()
			start := time.Now()
			base, err := mc.CountCtx(ctx, g, wl.k, eng, false)
			if err != nil {
				return err
			}
			baseS := time.Since(start).Seconds()

			start = time.Now()
			morphed, err := mc.CountCtx(ctx, g, wl.k, eng, true)
			if err != nil {
				return err
			}
			morphS := time.Since(start).Seconds()

			// Correctness gate (claim C1): identical outputs.
			for i := range base.Counts {
				if base.Counts[i] != morphed.Counts[i] {
					return errMismatch(name, wl.k, i, base.Counts[i], morphed.Counts[i])
				}
			}
			csv(w, wl.k, name, eng.Name(),
				baseS, morphS, ratio(baseS, morphS),
				base.Stats.Mining.SetElems, morphed.Stats.Mining.SetElems,
				ratio(float64(base.Stats.Mining.SetElems), float64(morphed.Stats.Mining.SetElems)))
		}
	}
	return nil
}

type mismatchError struct {
	graph         string
	k, idx        int
	base, morphed uint64
}

func errMismatch(graphName string, k, idx int, base, morphed uint64) error {
	return &mismatchError{graph: graphName, k: k, idx: idx, base: base, morphed: morphed}
}

func (e *mismatchError) Error() string {
	return "bench: CORRECTNESS VIOLATION: " + e.graph + " k-mismatch: morphed and baseline counts differ"
}
