package bench

import (
	"context"
	"io"
	"time"

	"morphing/internal/apps/fsm"
	"morphing/internal/bigjoin"
	"morphing/internal/engine"
	"morphing/internal/graphpi"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// Section 3 profiling: where baseline systems spend their time. These
// experiments run WITHOUT morphing — they motivate it.

// fig4Patterns are the Fig. 4b/4c pattern columns: 4-star, tailed
// triangle, chordal 4-cycle, 4-clique (vertex-induced, as Peregrine mines
// motif-style queries).
func fig4Patterns() []pattern.Named {
	return []pattern.Named{
		{Name: "4S", Pattern: pattern.FourStar().AsVertexInduced()},
		{Name: "TT", Pattern: pattern.TailedTriangle().AsVertexInduced()},
		{Name: "C4C", Pattern: pattern.ChordalFourCycle().AsVertexInduced()},
		{Name: "4CL", Pattern: pattern.FourClique().AsVertexInduced()},
	}
}

// runFig4a profiles FSM on Peregrine: the UDF (MNI maintenance) dominates.
func runFig4a(ctx context.Context, cfg Config, w io.Writer) error {
	csv(w, "graph", "total_s", "setop_pct", "materialize_pct", "udf_pct", "system_pct")
	for _, name := range graphsFor(cfg, 1, "MI", "MG") {
		g, err := loadGraph(cfg, name)
		if err != nil {
			return err
		}
		eng := &peregrine.Engine{Threads: cfg.Threads, Instrument: true}
		start := time.Now()
		_, stats, err := fsm.MineCtx(ctx, g, eng, fsm.Options{MaxEdges: 3, MinSupport: g.NumVertices() / 20, Morph: false})
		if err != nil {
			return err
		}
		total := time.Since(start).Seconds()
		writeBreakdown(w, total, &stats.Mining, name)
	}
	return nil
}

// runFig4b profiles subgraph enumeration: a simple listing UDF still eats
// a visible share.
func runFig4b(ctx context.Context, cfg Config, w io.Writer) error {
	csv(w, "pattern", "graph", "total_s", "setop_pct", "materialize_pct", "udf_pct", "system_pct")
	g, err := loadGraph(cfg, "MI")
	if err != nil {
		return err
	}
	for _, np := range fig4Patterns() {
		eng := &peregrine.Engine{Threads: cfg.Threads, Instrument: true}
		// One sink per worker: the visitor runs on every worker at once.
		var sinks engine.Shards[uint64]
		start := time.Now()
		st, err := eng.MatchCtx(ctx, g, np.Pattern, func(worker int, m []uint32) {
			// The paper's SE lists matches: simulate the listing UDF by
			// touching every match vertex.
			sink := sinks.For(worker)
			for _, v := range m {
				*sink += uint64(v)
			}
		})
		if err != nil {
			return err
		}
		total := time.Since(start).Seconds()
		writeBreakdown(w, total, st, np.Name, "MI")
	}
	return nil
}

// runFig4c profiles subgraph counting: set operations dominate and
// matches are never materialized.
func runFig4c(ctx context.Context, cfg Config, w io.Writer) error {
	csv(w, "pattern", "graph", "total_s", "setop_pct", "materialize_pct", "udf_pct", "system_pct")
	g, err := loadGraph(cfg, "MI")
	if err != nil {
		return err
	}
	for _, np := range fig4Patterns() {
		eng := &peregrine.Engine{Threads: cfg.Threads, Instrument: true}
		start := time.Now()
		_, st, err := eng.CountCtx(ctx, g, np.Pattern)
		if err != nil {
			return err
		}
		total := time.Since(start).Seconds()
		writeBreakdown(w, total, st, np.Name, "MI")
	}
	return nil
}

// runFig4d profiles GraphPi mining tailed triangles and chordal 4-cycles
// edge-induced (native) vs vertex-induced (Filter UDF): the filter
// dominates the -V rows.
func runFig4d(ctx context.Context, cfg Config, w io.Writer) error {
	return runFilterProfile(ctx, cfg, w, func() engine.Engine {
		return &graphpi.Engine{Threads: cfg.Threads, Instrument: true}
	})
}

// runFig4e is Fig. 4d for the BigJoin model.
func runFig4e(ctx context.Context, cfg Config, w io.Writer) error {
	return runFilterProfile(ctx, cfg, w, func() engine.Engine {
		return &bigjoin.Engine{Threads: cfg.Threads, Instrument: true}
	})
}

func runFilterProfile(ctx context.Context, cfg Config, w io.Writer, mk func() engine.Engine) error {
	csv(w, "workload", "graph", "total_s", "filter_udf_pct", "branches")
	g, err := loadGraph(cfg, "MI")
	if err != nil {
		return err
	}
	for _, np := range []pattern.Named{
		{Name: "TT", Pattern: pattern.TailedTriangle()},
		{Name: "C4C", Pattern: pattern.ChordalFourCycle()},
	} {
		eng := mk()
		start := time.Now()
		_, stE, err := eng.CountCtx(ctx, g, np.Pattern)
		if err != nil {
			return err
		}
		totalE := time.Since(start).Seconds()
		csv(w, np.Name+"-E", "MI", totalE, pct(stE.UDFTime.Seconds(), totalE), stE.Branches)

		eng = mk()
		start = time.Now()
		_, stV, err := engine.CountVertexInducedViaFilterCtx(ctx, eng, g, np.Pattern.AsVertexInduced())
		if err != nil {
			return err
		}
		totalV := time.Since(start).Seconds()
		csv(w, np.Name+"-V", "MI", totalV, pct(stV.UDFTime.Seconds(), totalV), stV.Branches)
	}
	return nil
}

// runFig4f shows that the relative performance of mining different
// patterns flips between data graphs (observation 3).
func runFig4f(ctx context.Context, cfg Config, w io.Writer) error {
	csv(w, "graph", "pattern", "time_s", "relative_to_slower")
	for _, name := range graphsFor(cfg, 3, "MI", "MG", "PR") {
		g, err := loadGraph(cfg, name)
		if err != nil {
			return err
		}
		times := map[string]float64{}
		for _, np := range []pattern.Named{
			{Name: "TT", Pattern: pattern.TailedTriangle().AsVertexInduced()},
			{Name: "4S", Pattern: pattern.FourStar().AsVertexInduced()},
		} {
			eng := peregrine.New(cfg.Threads)
			start := time.Now()
			if _, _, err := eng.CountCtx(ctx, g, np.Pattern); err != nil {
				return err
			}
			times[np.Name] = time.Since(start).Seconds()
		}
		slower := times["TT"]
		if times["4S"] > slower {
			slower = times["4S"]
		}
		csv(w, name, "TT", times["TT"], ratio(times["TT"], slower))
		csv(w, name, "4S", times["4S"], ratio(times["4S"], slower))
	}
	return nil
}

// writeBreakdown writes one breakdown row: the leading columns (the graph,
// or the pattern and the graph), the total and its shares of set
// operations, materialization, UDF and the rest of the system.
func writeBreakdown(w io.Writer, total float64, st *engine.Stats, lead ...any) {
	setop := st.SetOpTime.Seconds()
	mat := st.MaterializeTime.Seconds()
	udf := st.UDFTime.Seconds()
	system := max(total-setop-mat-udf, 0)
	csv(w, append(lead, total, pct(setop, total), pct(mat, total), pct(udf, total), pct(system, total))...)
}
