package peregrine

import (
	"context"
	"sync/atomic"
	"testing"

	"morphing/internal/dataset"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/refmatch"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := dataset.ErdosRenyi(70, 8, 0, 31)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSupportsBothVariants(t *testing.T) {
	e := New(2)
	if !e.SupportsInduced(pattern.EdgeInduced) || !e.SupportsInduced(pattern.VertexInduced) {
		t.Fatal("Peregrine must support both semantics")
	}
	if e.Name() != "Peregrine" {
		t.Fatalf("Name() = %q", e.Name())
	}
}

func TestExists(t *testing.T) {
	g := testGraph(t)
	e := New(2)
	ok, _, err := ExistsCtx(context.Background(), e, g, pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	if want := refmatch.Count(g, pattern.Triangle()) > 0; ok != want {
		t.Fatalf("Exists(triangle) = %v, oracle %v", ok, want)
	}
	// A pattern that cannot exist in a simple sparse graph.
	huge := pattern.Clique(8)
	ok, _, err = ExistsCtx(context.Background(), e, g, huge)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Exists(K8) on a sparse ER graph returned true")
	}
}

func TestCountUpToBounds(t *testing.T) {
	g := testGraph(t)
	e := New(3)
	full, _, err := e.CountCtx(context.Background(), g, pattern.Wedge())
	if err != nil {
		t.Fatal(err)
	}
	if full < 100 {
		t.Skipf("too few wedges (%d) to test limits", full)
	}
	n, st, err := CountUpToCtx(context.Background(), e, g, pattern.Wedge(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if n < 10 {
		t.Fatalf("CountUpTo(10) found only %d of %d", n, full)
	}
	if n >= full {
		t.Fatalf("CountUpTo(10) did not terminate early (found %d of %d)", n, full)
	}
	// The early exit is the root scan stopping: workers drain the root
	// vertex in hand and claim no more.
	if scanned := st.Levels[0].Candidates; scanned >= uint64(g.NumVertices()) {
		t.Fatalf("CountUpTo(10) scanned %d of %d root vertices", scanned, g.NumVertices())
	}
	// Limit 0 means unlimited.
	all, _, err := CountUpToCtx(context.Background(), e, g, pattern.Wedge(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if all != full {
		t.Fatalf("CountUpTo(0) = %d, want %d", all, full)
	}
}

func TestInstrumentedCountTimings(t *testing.T) {
	g := testGraph(t)
	e := &Engine{Threads: 2, Instrument: true}
	_, st, err := e.CountCtx(context.Background(), g, pattern.FourCycle().AsVertexInduced())
	if err != nil {
		t.Fatal(err)
	}
	if st.SetOpTime <= 0 {
		t.Error("instrumented run has no SetOpTime")
	}
	_, err = e.MatchCtx(context.Background(), g, pattern.Triangle(), func(int, []uint32) {})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMatchDeliversByPatternVertex(t *testing.T) {
	// A labeled wedge on a path graph: the center must be delivered at
	// index 1 regardless of engine internals.
	g, err := graph.FromEdges(3, [][2]uint32{{0, 1}, {1, 2}}, []int32{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	p := pattern.MustNew(3, [][2]int{{0, 1}, {1, 2}}, pattern.WithLabels([]int32{1, 2, 1}))
	var centers int64
	_, err = New(1).MatchCtx(context.Background(), g, p, func(_ int, m []uint32) {
		if m[1] == 1 {
			atomic.AddInt64(&centers, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if centers != 1 {
		t.Fatalf("center delivered wrong: %d", centers)
	}
}

func TestRejectsDisconnected(t *testing.T) {
	g := testGraph(t)
	e := New(1)
	disc := pattern.MustNew(4, [][2]int{{0, 1}, {2, 3}})
	if _, _, err := e.CountCtx(context.Background(), g, disc); err == nil {
		t.Fatal("disconnected pattern accepted")
	}
	if _, err := e.MatchCtx(context.Background(), g, disc, func(int, []uint32) {}); err == nil {
		t.Fatal("disconnected pattern accepted by Match")
	}
}
