package bench

import (
	"context"
	"fmt"
	"io"

	"morphing/internal/apps/fsm"
	"morphing/internal/apps/mc"
	"morphing/internal/apps/sc"
	"morphing/internal/apps/se"
	"morphing/internal/autozero"
	"morphing/internal/bigjoin"
	"morphing/internal/engine"
	"morphing/internal/graphpi"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// runSanity is the analogue of the artifact's sanity_check.sh (Appendix
// B.3): a ~30-second end-to-end sweep that runs every application on
// every applicable engine at tiny scale and verifies morphed results
// equal baseline results. Each line is PASS/FAIL; any FAIL aborts with an
// error so CI catches it.
func runSanity(ctx context.Context, cfg Config, w io.Writer) error {
	tiny := cfg
	tiny.Scale = cfg.Scale / 2
	if tiny.Scale <= 0 {
		tiny.Scale = 0.001
	}
	g, err := loadGraph(tiny, "MI")
	if err != nil {
		return err
	}
	pass := func(name string) { fmt.Fprintf(w, "PASS %s\n", name) }

	// Motif counting on the anti-edge-capable engines.
	for _, eng := range []engine.Engine{peregrine.New(tiny.Threads), autozero.New(tiny.Threads)} {
		base, err := mc.CountCtx(ctx, g, 4, eng, false)
		if err != nil {
			return err
		}
		morphed, err := mc.CountCtx(ctx, g, 4, eng, true)
		if err != nil {
			return err
		}
		for i := range base.Counts {
			if base.Counts[i] != morphed.Counts[i] {
				return fmt.Errorf("sanity: %s 4-MC motif %v: %d != %d",
					eng.Name(), base.Patterns[i], base.Counts[i], morphed.Counts[i])
			}
		}
		pass("4-MC " + eng.Name())
	}

	// Vertex-induced counting on the edge-only engines: Filter-UDF
	// baseline vs morphing.
	queries := []*pattern.Pattern{
		pattern.TailedTriangle().AsVertexInduced(),
		pattern.FourCycle().AsVertexInduced(),
	}
	for _, eng := range []engine.Engine{graphpi.New(tiny.Threads), bigjoin.New(tiny.Threads)} {
		viaFilter, _, err := sc.CountBaselineWithFilter(ctx, g, queries, eng)
		if err != nil {
			return err
		}
		viaMorph, _, err := sc.CountCtx(ctx, g, queries, eng, true)
		if err != nil {
			return err
		}
		for i := range queries {
			if viaFilter[i] != viaMorph[i] {
				return fmt.Errorf("sanity: %s query %v: filter %d != morphed %d",
					eng.Name(), queries[i], viaFilter[i], viaMorph[i])
			}
		}
		pass("SC-filter " + eng.Name())
	}

	// FSM on Peregrine.
	minSup := g.NumVertices() / 20
	if minSup < 2 {
		minSup = 2
	}
	baseFreq, _, err := fsm.MineCtx(ctx, g, peregrine.New(tiny.Threads), fsm.Options{MaxEdges: 2, MinSupport: minSup})
	if err != nil {
		return err
	}
	morphFreq, _, err := fsm.MineCtx(ctx, g, peregrine.New(tiny.Threads), fsm.Options{MaxEdges: 2, MinSupport: minSup, Morph: true})
	if err != nil {
		return err
	}
	if len(baseFreq) != len(morphFreq) {
		return fmt.Errorf("sanity: FSM frequent sets differ: %d vs %d", len(baseFreq), len(morphFreq))
	}
	pass("2-FSM Peregrine")

	// Subgraph enumeration with on-the-fly conversion.
	weights := se.NewWeights(g, 0, 1, tiny.Seed)
	seQueries := []*pattern.Pattern{pattern.FourCycle(), pattern.Path(4)}
	eng := peregrine.New(tiny.Threads)
	baseEnum, err := se.EnumerateCtx(ctx, g, eng, seQueries, weights.WithinOneStd, nil, se.Options{})
	if err != nil {
		return err
	}
	morphEnum, err := se.EnumerateCtx(ctx, g, eng, seQueries, weights.WithinOneStd, nil,
		se.Options{Morph: true, PerMatchCost: 50})
	if err != nil {
		return err
	}
	for i := range seQueries {
		if baseEnum.Delivered[i] != morphEnum.Delivered[i] {
			return fmt.Errorf("sanity: SE query %v delivered %d vs %d",
				seQueries[i], baseEnum.Delivered[i], morphEnum.Delivered[i])
		}
	}
	pass("SE on-the-fly Peregrine")
	fmt.Fprintln(w, "sanity check complete: all applications agree with baselines")
	return nil
}
