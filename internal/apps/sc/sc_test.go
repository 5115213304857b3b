package sc

import (
	"context"
	"errors"
	"testing"
	"time"

	"morphing/internal/bigjoin"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graphpi"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/refmatch"
)

func evalPatterns() []*pattern.Pattern {
	return []*pattern.Pattern{
		pattern.TailedTriangle().AsVertexInduced(),
		pattern.ChordalFourCycle().AsVertexInduced(),
		pattern.FourCycle().AsVertexInduced(),
	}
}

func TestCountMorphedMatchesOracle(t *testing.T) {
	g, err := dataset.ErdosRenyi(50, 7, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	counts, stats, err := CountCtx(context.Background(), g, evalPatterns(), peregrine.New(3), true)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range evalPatterns() {
		want := refmatch.Count(g, q)
		if counts[i] != want {
			t.Errorf("query %v: %d, want %d", q, counts[i], want)
		}
	}
	if stats.Selection == nil {
		t.Fatal("missing selection in stats")
	}
}

func TestCountOnEdgeOnlyEnginesViaMorphing(t *testing.T) {
	// GraphPi/BigJoin cannot mine vertex-induced patterns natively;
	// morphing computes the counts UDF-free (§7.2).
	g, err := dataset.ErdosRenyi(45, 7, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	queries := evalPatterns()
	gp := graphpi.New(2)
	bj := bigjoin.New(2)
	gotGP, _, err := CountCtx(context.Background(), g, queries, gp, true)
	if err != nil {
		t.Fatal(err)
	}
	gotBJ, _, err := CountCtx(context.Background(), g, queries, bj, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want := refmatch.Count(g, q)
		if gotGP[i] != want {
			t.Errorf("GraphPi morphed %v: %d, want %d", q, gotGP[i], want)
		}
		if gotBJ[i] != want {
			t.Errorf("BigJoin morphed %v: %d, want %d", q, gotBJ[i], want)
		}
	}
	// Baseline without morphing must fail on these engines (vertex-
	// induced queries unsupported natively).
	if _, _, err := CountCtx(context.Background(), g, queries, gp, false); err == nil {
		t.Error("GraphPi baseline accepted vertex-induced queries without morphing")
	}
}

func TestFilterBaselineAgreesWithMorphing(t *testing.T) {
	g, err := dataset.ErdosRenyi(45, 7, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	queries := evalPatterns()
	gp := graphpi.New(2)
	viaFilter, st, err := CountBaselineWithFilter(context.Background(), g, queries, gp)
	if err != nil {
		t.Fatal(err)
	}
	viaMorph, _, err := CountCtx(context.Background(), g, queries, gp, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if viaFilter[i] != viaMorph[i] {
			t.Errorf("query %v: filter %d, morphed %d", queries[i], viaFilter[i], viaMorph[i])
		}
	}
	if st.UDFCalls == 0 || st.Branches == 0 {
		t.Error("filter baseline did not record UDF work")
	}
	// Edge-induced query rejected by the filter baseline.
	if _, _, err := CountBaselineWithFilter(context.Background(), g, []*pattern.Pattern{pattern.Triangle()}, gp); err == nil {
		t.Error("edge-induced query accepted by filter baseline")
	}
}

// TestFilterBaselineHonoursDeadline: the baseline half of a figure must be
// bounded by the same context as the morphed half (`morphcli fig -timeout`).
func TestFilterBaselineHonoursDeadline(t *testing.T) {
	g, err := dataset.ErdosRenyi(45, 7, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	for _, eng := range []engine.Engine{graphpi.New(2), bigjoin.New(2)} {
		counts, _, err := CountBaselineWithFilter(expired, g, evalPatterns(), eng)
		if !errors.Is(err, engine.ErrDeadlineExceeded) || counts != nil {
			t.Errorf("%s: expired baseline returned counts=%v err=%v, want engine.ErrDeadlineExceeded", eng.Name(), counts, err)
		}
	}
}

func TestEmptyQuerySet(t *testing.T) {
	g, err := dataset.ErdosRenyi(10, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := CountCtx(context.Background(), g, nil, peregrine.New(1), true); err == nil {
		t.Error("empty query set accepted")
	}
}
