package graphpi

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/refmatch"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := dataset.ErdosRenyi(60, 8, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRejectsVertexInducedNatively(t *testing.T) {
	g := testGraph(t)
	e := New(2)
	_, _, err := e.CountCtx(context.Background(), g, pattern.FourCycle().AsVertexInduced())
	if !errors.Is(err, engine.ErrInducedUnsupported) {
		t.Fatalf("got %v, want ErrInducedUnsupported", err)
	}
	// Cliques are fine either way.
	if _, _, err := e.CountCtx(context.Background(), g, pattern.Triangle().AsVertexInduced()); err != nil {
		t.Fatalf("vertex-induced clique rejected: %v", err)
	}
	if _, err := e.MatchCtx(context.Background(), g, pattern.FourCycle().AsVertexInduced(), func(int, []uint32) {}); err == nil {
		t.Fatal("Match accepted vertex-induced pattern")
	}
}

// TestOrderSelectionConsistency: the order the performance model picks
// for a 5-vertex pattern must count what the oracle counts.
func TestOrderSelectionConsistency(t *testing.T) {
	g := testGraph(t)
	p := pattern.House()
	got, _, err := New(2).CountCtx(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := refmatch.Count(g, p); got != want {
		t.Errorf("count %d, want %d", got, want)
	}
}

func TestFilterStatsAccounting(t *testing.T) {
	g := testGraph(t)
	e := New(2)
	p := pattern.FourCycle().AsVertexInduced()
	kept, st, err := engine.CountVertexInducedViaFilterCtx(context.Background(), e, g, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := refmatch.Count(g, p); kept != want {
		t.Fatalf("filter count %d, want %d", kept, want)
	}
	edgeCount := refmatch.Count(g, p.AsEdgeInduced())
	if st.UDFCalls != edgeCount {
		t.Errorf("UDFCalls=%d, want one per edge-induced match (%d)", st.UDFCalls, edgeCount)
	}
	if st.Matches != kept {
		t.Errorf("Stats.Matches=%d, want surviving count %d", st.Matches, kept)
	}
	if st.Branches == 0 {
		t.Error("filter probes not counted as branches")
	}
}

// TestFilterPathUnderManyWorkerIDs (run it with -race) raises GOMAXPROCS
// so the executor's default thread count gives 600 live worker IDs on a
// graph with a block for each: the Filter UDF must keep one counter shard
// per ID. The 64-entry array it used to fold IDs into with Threads unset
// let ten live workers share each shard.
func TestFilterPathUnderManyWorkerIDs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(600))
	g, err := dataset.ErdosRenyi(1500, 5, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	p := pattern.Wedge().AsVertexInduced()
	kept, st, err := engine.CountVertexInducedViaFilterCtx(context.Background(), &Engine{}, g, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := refmatch.Count(g, p); kept != want || st.Matches != want {
		t.Fatalf("filter kept %d (stats %d) under 600 worker IDs, oracle %d", kept, st.Matches, want)
	}
	if len(st.Workers) < 100 {
		t.Fatalf("only %d workers ran; the test needs hundreds of live IDs", len(st.Workers))
	}
}

// TestCheapestPrice: the order search keeps the lowest finite price and
// the first of equal ones; NaN and infinite prices never win over a finite
// one, and when no price is finite the first order stands rather than
// none — a model that prices every order NaN must not fail the pattern.
// pick is Plan's loop over the prices alone.
func TestCheapestPrice(t *testing.T) {
	pick := func(prices []float64) int {
		best := -1
		for i, c := range prices {
			if best < 0 || cheaper(c, prices[best]) {
				best = i
			}
		}
		return best
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		prices []float64
		want   int
	}{
		{nil, -1},
		{[]float64{3, 1, 2}, 1},
		{[]float64{2, 1, 1}, 1},
		{[]float64{nan, 5, 4}, 2},
		{[]float64{inf, nan, 7}, 2},
		{[]float64{7, nan, inf, math.Inf(-1)}, 0},
		{[]float64{nan, nan}, 0},
		{[]float64{inf, inf}, 0},
		{[]float64{nan, inf, math.Inf(-1)}, 0},
	} {
		if got := pick(tc.prices); got != tc.want {
			t.Errorf("pick(%v) = %d, want %d", tc.prices, got, tc.want)
		}
	}
}
