package core

import (
	"context"
	"slices"
	"strconv"
	"testing"

	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/faultinject"
	"morphing/internal/graphpi"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// TestExplainRunsThePlainRoute is the differential behind "Explain changes
// what is recorded, not what executes": on every pipeline an explained run
// and a plain run return the same results from the same executor work —
// passes, set operations, elements scanned, matches, branches — and the
// calibration rows carry each mined alternative's exact count. One worker,
// so the counters are deterministic.
func TestExplainRunsThePlainRoute(t *testing.T) {
	g, err := dataset.ErdosRenyi(60, 6, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	counting := []*pattern.Pattern{
		pattern.FourCycle().AsVertexInduced(),
		pattern.FourStar().AsVertexInduced(),
		pattern.TailedTriangle(),
	}
	streaming := []*pattern.Pattern{pattern.FourCycle(), pattern.TailedTriangle(), pattern.Wedge()}

	// run executes one pipeline and renders its results comparably.
	type run func(r *Runner) ([]string, *RunStats, error)
	counts := func(r *Runner) ([]string, *RunStats, error) {
		cs, st, err := r.CountsCtx(ctx, g, counting)
		out := make([]string, len(cs))
		for i, c := range cs {
			out[i] = strconv.FormatUint(c, 10)
		}
		return out, st, err
	}
	tables := func(r *Runner) ([]string, *RunStats, error) {
		ts, st, err := r.MNITablesCtx(ctx, g, streaming)
		out := make([]string, len(ts))
		for i, tbl := range ts {
			out[i] = tbl.String()
		}
		return out, st, err
	}

	for _, tc := range []struct {
		name   string
		engine func() engine.Engine
		run    run
	}{
		{"counting/peregrine", func() engine.Engine { return peregrine.New(1) }, counts},
		{"counting/graphpi", func() engine.Engine { return graphpi.New(1) }, counts},
		// MNI needs native vertex-induced matching (PolicyVertexOnly), which
		// the GraphPi model lacks.
		{"mni-batched/peregrine", func() engine.Engine { return peregrine.New(1) }, tables},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, plain, err := tc.run(&Runner{Engine: tc.engine()})
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := tc.run(&Runner{Engine: tc.engine(), Explain: true})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("explained results %v, plain %v", got, want)
			}
			if !st.Trie.Used || *st.Trie != *plain.Trie {
				t.Errorf("explained decision %+v, plain %+v", st.Trie, plain.Trie)
			}
			work := func(m *engine.Stats) [5]uint64 {
				return [5]uint64{m.TriePasses, m.SetOps, m.SetElems, m.Matches, m.Branches}
			}
			if work(st.Mining) != work(plain.Mining) || st.Mining.TriePasses != 1 {
				t.Errorf("explained {passes, set ops, elems, matches, branches} %v, plain %v", work(st.Mining), work(plain.Mining))
			}
			if len(plain.PerPattern) != 0 || len(st.PerPattern) != len(st.Selection.Mine) {
				t.Fatalf("%d calibration rows plain, %d explained for %d mined patterns",
					len(plain.PerPattern), len(st.PerPattern), len(st.Selection.Mine))
			}
			for i, c := range st.Selection.Mine {
				n, _, err := tc.engine().CountCtx(ctx, g, c.Pattern)
				if err != nil {
					t.Fatal(err)
				}
				if st.PerPattern[i].Matches != n || st.PerPattern[i].Pattern != c.Pattern.String() {
					t.Errorf("row %d: %s with %d matches, mined alone %s has %d",
						i, st.PerPattern[i].Pattern, st.PerPattern[i].Matches, c.Pattern, n)
				}
			}
		})
	}

	// An interrupted explained run reports the same partial counts twice:
	// as Partial and as its calibration rows' matches.
	t.Run("interrupted", func(t *testing.T) {
		disarm, err := faultinject.Arm(faultinject.Config{PanicAtMatch: 40, PanicMessage: "explain boom"})
		if err != nil {
			t.Fatal(err)
		}
		defer disarm()
		_, st, err := (&Runner{Engine: peregrine.New(1), Explain: true}).CountsCtx(ctx, g, counting)
		if !engine.Interrupted(err) || st == nil {
			t.Fatalf("err %v, stats %v: want a typed interruption with stats", err, st)
		}
		if len(st.Partial) != len(st.Selection.Mine) || len(st.PerPattern) != len(st.Partial) {
			t.Fatalf("%d partial counts, %d calibration rows for %d mined patterns",
				len(st.Partial), len(st.PerPattern), len(st.Selection.Mine))
		}
		for i, pc := range st.Partial {
			if st.PerPattern[i].Matches != pc.Count {
				t.Errorf("pattern %v: partial count %d, calibration row %d", pc.Pattern, pc.Count, st.PerPattern[i].Matches)
			}
		}
	})
}
