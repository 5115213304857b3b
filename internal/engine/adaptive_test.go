package engine

import (
	"context"
	"testing"

	"morphing/internal/canon"
	"morphing/internal/dataset"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/plan"
	"morphing/internal/refmatch"
	"morphing/internal/setops"
)

// Triangle counting has a single-constraint middle level and a two-
// constraint final level, so a visit==nil run needs no destination writes
// at all: level 1 reuses the root's adjacency list, level 2 is count-only.
func TestCountingTriangleWritesNothing(t *testing.T) {
	g, err := dataset.ErdosRenyi(60, 9, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Build(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := BacktrackCtx(context.Background(), g, pl, nil, ExecOptions{Threads: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := refmatch.Count(g, pattern.Triangle()); got != want {
		t.Fatalf("triangles=%d, oracle=%d", got, want)
	}
	if st.SetWritten != 0 {
		t.Errorf("counting run wrote %d candidate elements, want 0", st.SetWritten)
	}
	if st.SetCountOps == 0 {
		t.Error("no count-only operations recorded")
	}
	if st.Materialized != 0 {
		t.Errorf("counting run materialized %d match vertices", st.Materialized)
	}
}

// noHubRows serves a plain graph without its bitmap rows, to the pass and
// to every worker view: the merge/gallop route over the same CSR.
type noHubRows struct{ *graph.Graph }

func (noHubRows) HubBits(uint32) []uint64 { return nil }
func (g noHubRows) View() graph.Adjacency { return g }

// hubbedGraph has three vertices over the default hub threshold on an
// otherwise sparse graph, so the index a plain graph builds by itself
// holds rows.
func hubbedGraph(t testing.TB, labels int, seed int64) *graph.Graph {
	t.Helper()
	g, err := dataset.Hubbed(96, 6, 3, labels, seed)
	if err != nil {
		t.Fatal(err)
	}
	if g.HubBits(95) == nil || g.HubBits(0) != nil {
		t.Fatal("the hubbed graph must serve bitmap rows for its hubs alone")
	}
	return g
}

// The five path counters partition SetOps exactly, with and without hub
// rows in play.
func TestCountingStatsPathPartition(t *testing.T) {
	er, err := dataset.ErdosRenyi(80, 12, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	hubbed := hubbedGraph(t, 0, 7)
	for name, g := range map[string]graph.Adjacency{"er": er, "hubbed": hubbed, "hub rows hidden": noHubRows{hubbed}} {
		for _, p := range []*pattern.Pattern{
			pattern.FourClique(),
			pattern.FourCycle().AsVertexInduced(),
			pattern.House(),
		} {
			pl, err := plan.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			_, st, err := BacktrackCtx(context.Background(), g, pl, nil, ExecOptions{Threads: 2}, nil)
			if err != nil {
				t.Fatal(err)
			}
			sum := st.SetMergeOps + st.SetGallopOps + st.SetBitsetOps + st.SetCountOps + st.SetUnrolledOps
			if sum != st.SetOps || st.SetTileOps != 0 {
				t.Errorf("%s %v: paths sum to %d, SetOps=%d, SetTileOps=%d", name, p, sum, st.SetOps, st.SetTileOps)
			}
			if bitset := st.SetBitsetOps > 0; bitset != (name == "hubbed") {
				t.Errorf("%s %v: %d bitset operations", name, p, st.SetBitsetOps)
			}
		}
	}
}

// Counts must be identical with the hub rows served and hidden, across
// every connected pattern shape and both induced semantics, and must match
// the reference oracle.
func TestBacktrackHubIndexMatchesOracle(t *testing.T) {
	g := hubbedGraph(t, 2, 3)
	for k := 3; k <= 4; k++ {
		ps, err := canon.AllConnectedPatterns(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range ps {
			for _, iv := range []pattern.Induced{pattern.EdgeInduced, pattern.VertexInduced} {
				p := base.Variant(iv)
				pl, err := plan.Build(p)
				if err != nil {
					t.Fatal(err)
				}
				off, _, err := BacktrackCtx(context.Background(), noHubRows{g}, pl, nil, ExecOptions{Threads: 2}, nil)
				if err != nil {
					t.Fatal(err)
				}
				on, _, err := BacktrackCtx(context.Background(), g, pl, nil, ExecOptions{Threads: 2}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if on != off {
					t.Errorf("pattern=%v: hub-on=%d hub-off=%d", p, on, off)
				}
				if want := refmatch.Count(g, p); on != want {
					t.Errorf("pattern=%v: count=%d oracle=%d", p, on, want)
				}
			}
		}
	}
}

// CountExtensions must agree with materialize-then-filter for arbitrary
// conn/disc/window/bound combinations, hub rows in play or not, on plain
// CSR and on the compressed tier (where every row comes out of a pin's
// decode buffer and every bound-vertex probe out of a pinned row).
func TestCountExtensionsMatchesMaterialized(t *testing.T) {
	er, err := dataset.ErdosRenyi(70, 10, 2, 21)
	if err != nil {
		t.Fatal(err)
	}
	// The same graph with the vertices the cases put first in conn and disc
	// made hubs: {3,17} closes a level by AND of two bitmaps, 5 is a bitmap
	// difference, 29, 40 and 8 stay list rows.
	b := graph.NewBuilder(70)
	for v := uint32(0); v < 70; v++ {
		for _, u := range er.Neighbors(v) {
			b.AddEdge(v, u)
		}
		for _, h := range []uint32{3, 17, 5} {
			if v != h && (v+h)%16 != 0 {
				b.AddEdge(h, v)
			}
		}
	}
	b.SetLabels(er.Labels())
	hubbed, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if hubbed.HubBits(3) == nil || hubbed.HubBits(17) == nil || hubbed.HubBits(5) == nil || hubbed.HubBits(29) != nil {
		t.Fatal("3, 17 and 5 must be the hubs")
	}
	c, err := graph.Compress(hubbed, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := er // what reference reads; run sets it
	reference := func(conn, disc []uint32, f setops.Filter, bound []uint32) uint64 {
		var n uint64
	next:
		for v := uint32(0); v < uint32(g.NumVertices()); v++ {
			if !f.Pass(v) {
				continue
			}
			for _, u := range bound {
				if u == v {
					continue next
				}
			}
			for _, c := range conn {
				if !g.HasEdge(v, c) {
					continue next
				}
			}
			for _, d := range disc {
				if g.HasEdge(v, d) {
					continue next
				}
			}
			n++
		}
		return n
	}
	cases := []struct {
		conn, disc []uint32
		f          setops.Filter
	}{
		{[]uint32{3}, nil, setops.All()},
		{[]uint32{3}, nil, setops.Window(2, 40)},
		{[]uint32{3, 17}, nil, setops.All()},
		{[]uint32{3, 17}, nil, setops.Window(10, 60)},
		{[]uint32{3, 17, 29}, nil, setops.All()},
		{[]uint32{3, 17}, []uint32{5}, setops.Window(0, 50)},
		{[]uint32{8}, []uint32{3, 17}, setops.All()},
		{[]uint32{3, 17, 29}, []uint32{5, 40}, setops.Window(1, 69)},
		{[]uint32{3}, nil, setops.Filter{Hi: ^uint32(0), Labels: g.Labels(), Want: 1}},
		{[]uint32{3, 17}, []uint32{5}, setops.Filter{Lo: 4, Hi: 66, Labels: g.Labels(), Want: 0}},
		{[]uint32{3, 17}, nil, setops.Filter{Hi: ^uint32(0), Labels: g.Labels(), Want: 0}},
		{[]uint32{3, 17, 29}, nil, setops.Filter{Hi: ^uint32(0), Labels: g.Labels(), Want: 1}},
		{[]uint32{8}, []uint32{3, 17}, setops.Filter{Lo: 1, Hi: 69, Labels: g.Labels(), Want: 1}},
	}
	run := func(name string, a graph.Adjacency, oracle *graph.Graph) {
		g = oracle
		var pins rowPins
		bufA := make([]uint32, 0, g.MaxDegree())
		bufB := make([]uint32, 0, g.MaxDegree())
		for i, tc := range cases {
			// The prefix: conn vertices, disc vertices, then two unrelated
			// bound vertices; conn and disc are its leading depths.
			bound := append(append([]uint32{}, tc.conn...), tc.disc...)
			bound = append(bound, 0, 25)
			var conn, disc, check []int
			for j := range tc.conn {
				conn = append(conn, j)
			}
			for j := range tc.disc {
				disc = append(disc, len(tc.conn)+j)
			}
			for j := len(tc.conn); j < len(bound); j++ {
				check = append(check, j) // every depth outside conn is probed
			}
			pins.reset(a.View(), len(bound))
			pins.lrows, _ = a.(labelRower)
			pins.match = bound
			var st setops.Stats
			var got uint64
			want := reference(tc.conn, tc.disc, tc.f, bound)
			got, bufA, bufB = pins.countExtensions(conn, disc, nil, check, tc.f, pattern.Unlabeled, bufA, bufB, &st)
			if got != want {
				t.Errorf("%s case %d: CountExtensions=%d, reference=%d", name, i, got, want)
			}
			// The same level with the conn rows carrying the label.
			if tc.f.Labels != nil && pins.lrows != nil {
				got, bufA, bufB = pins.countExtensions(conn, disc, nil, check, tc.f, tc.f.Want, bufA, bufB, &st)
				if got != want {
					t.Errorf("%s case %d: CountExtensions over label rows=%d, reference=%d", name, i, got, want)
				}
			}
		}
	}
	run("plain", er, er)
	run("plain+hub", hubbed, hubbed)
	run("hub rows hidden", noHubRows{hubbed}, hubbed)
	run("compressed", c, hubbed)
}

func TestLevelFilter(t *testing.T) {
	unlabeled := completeGraph(4)
	if _, ok := levelFilter(unlabeled, 0, 10, 3); ok {
		t.Error("labeled level on unlabeled graph reported matchable")
	}
	if f, ok := levelFilter(unlabeled, 2, 9, pattern.Unlabeled); !ok || f.Lo != 2 || f.Hi != 9 || f.Labels != nil {
		t.Errorf("unlabeled level filter wrong: %+v ok=%v", f, ok)
	}
	g, err := dataset.ErdosRenyi(10, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := levelFilter(g, 0, 5, 1); !ok || f.Want != 1 || f.Labels == nil {
		t.Errorf("labeled level filter wrong: %+v ok=%v", f, ok)
	}
}

func TestAddSetops(t *testing.T) {
	var s Stats
	s.AddSetops(setops.Stats{Ops: 10, Elems: 100, MergeOps: 4, GallopOps: 3, BitsetOps: 2, CountOps: 1, Written: 50})
	s.AddSetops(setops.Stats{Ops: 1, CountOps: 1})
	if s.SetOps != 11 || s.SetElems != 100 || s.SetMergeOps != 4 || s.SetGallopOps != 3 ||
		s.SetBitsetOps != 2 || s.SetCountOps != 2 || s.SetWritten != 50 {
		t.Fatalf("merge wrong: %+v", s)
	}
}
