package bigjoin

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/refmatch"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := dataset.ErdosRenyi(70, 8, 0, 19)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSingleVertexQuery(t *testing.T) {
	g, err := graph.FromEdges(3, [][2]uint32{{0, 1}}, []int32{5, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	e := New(2)
	one := pattern.MustNew(1, nil, pattern.WithLabels([]int32{5}))
	got, _, err := e.CountCtx(context.Background(), g, one)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("labeled single-vertex count %d, want 2", got)
	}
	var visits int64
	if _, err := e.MatchCtx(context.Background(), g, one, func(_ int, m []uint32) {
		atomic.AddInt64(&visits, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if visits != 2 {
		t.Fatalf("single-vertex match visits %d, want 2", visits)
	}
}

func TestRejectsVertexInduced(t *testing.T) {
	g := testGraph(t)
	e := New(2)
	_, _, err := e.CountCtx(context.Background(), g, pattern.FourStar().AsVertexInduced())
	if !errors.Is(err, engine.ErrInducedUnsupported) {
		t.Fatalf("got %v, want ErrInducedUnsupported", err)
	}
	if _, _, err := e.CountCtx(context.Background(), g, pattern.FourClique().AsVertexInduced()); err != nil {
		t.Fatalf("vertex-induced clique rejected: %v", err)
	}
}

func TestFilterPathMatchesOracle(t *testing.T) {
	g := testGraph(t)
	e := New(3)
	p := pattern.TailedTriangle().AsVertexInduced()
	kept, st, err := engine.CountVertexInducedViaFilterCtx(context.Background(), e, g, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := refmatch.Count(g, p); kept != want {
		t.Fatalf("filter count %d, want %d", kept, want)
	}
	if st.Branches == 0 || st.UDFCalls == 0 {
		t.Error("filter work not recorded")
	}
}

func TestDisconnectedPatternRejected(t *testing.T) {
	g := testGraph(t)
	e := New(1)
	disc := pattern.MustNew(4, [][2]int{{0, 1}, {2, 3}})
	if _, _, err := e.CountCtx(context.Background(), g, disc); err == nil {
		t.Fatal("disconnected pattern accepted")
	}
}

// TestFilterPathUnderManyWorkerIDs (run it with -race) asks for a
// 600-worker budget: whatever IDs the executor hands the Filter UDF, each
// must own its counters.
func TestFilterPathUnderManyWorkerIDs(t *testing.T) {
	g := testGraph(t)
	e := New(600)
	for _, p := range []*pattern.Pattern{pattern.FourCycle().AsVertexInduced(), pattern.TailedTriangle().AsVertexInduced()} {
		kept, st, err := engine.CountVertexInducedViaFilterCtx(context.Background(), e, g, p)
		if err != nil {
			t.Fatal(err)
		}
		if want := refmatch.Count(g, p); kept != want || st.Matches != want {
			t.Fatalf("%v: filter kept %d (stats %d) under 600 workers, oracle %d", p, kept, st.Matches, want)
		}
	}
}
