package graphpi

import (
	"errors"
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
	_, _, err := e.Count(g, pattern.FourCycle().AsVertexInduced())
	if !errors.Is(err, engine.ErrInducedUnsupported) {
		t.Fatalf("got %v, want ErrInducedUnsupported", err)
	}
	// Cliques are fine either way.
	if _, _, err := e.Count(g, pattern.Triangle().AsVertexInduced()); err != nil {
		t.Fatalf("vertex-induced clique rejected: %v", err)
	}
	if _, err := e.Match(g, pattern.FourCycle().AsVertexInduced(), func(int, []uint32) {}); err == nil {
		t.Fatal("Match accepted vertex-induced pattern")
	}
}

func TestOrderSelectionConsistency(t *testing.T) {
	// Different MaxOrders budgets must still produce correct counts.
	g := testGraph(t)
	p := pattern.House()
	want := refmatch.Count(g, p)
	for _, budget := range []int{1, 4, 40, 720} {
		e := &Engine{Threads: 2, MaxOrders: budget}
		got, _, err := e.Count(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("MaxOrders=%d: count %d, want %d", budget, got, want)
		}
	}
}

func TestFilterStatsAccounting(t *testing.T) {
	g := testGraph(t)
	e := New(2)
	p := pattern.FourCycle().AsVertexInduced()
	kept, st, err := e.CountVertexInducedViaFilter(g, p)
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
