package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"morphing/internal/canon"
	"morphing/internal/dataset"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/plan"
	"morphing/internal/refmatch"
)

func completeGraph(n int) *graph.Graph {
	var edges [][2]uint32
	for u := uint32(0); u < uint32(n); u++ {
		for v := u + 1; v < uint32(n); v++ {
			edges = append(edges, [2]uint32{u, v})
		}
	}
	return graph.MustFromEdges(n, edges, nil)
}

func countBT(t *testing.T, g *graph.Graph, p *pattern.Pattern, threads int) uint64 {
	t.Helper()
	pl, err := plan.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := BacktrackCtx(context.Background(), g, pl, nil, ExecOptions{Threads: threads}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != got {
		t.Fatalf("Stats.Matches=%d, count=%d", st.Matches, got)
	}
	return got
}

func TestBacktrackKnownCounts(t *testing.T) {
	k5 := completeGraph(5)
	cases := []struct {
		name string
		p    *pattern.Pattern
		want uint64
	}{
		{"triangles in K5", pattern.Triangle(), 10},
		{"4-cliques in K5", pattern.FourClique(), 5},
		{"E 4-cycles in K5", pattern.FourCycle(), 15},
		{"V 4-cycles in K5", pattern.FourCycle().AsVertexInduced(), 0},
		{"5-clique in K5", pattern.FiveClique(), 1},
		{"edges in K5", pattern.Edge(), 10},
		{"E wedges in K5", pattern.Wedge(), 30},
		{"V wedges in K5", pattern.Wedge().AsVertexInduced(), 0},
	}
	for _, tc := range cases {
		if got := countBT(t, k5, tc.p, 2); got != tc.want {
			t.Errorf("%s: got %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestBacktrackSingleVertexPattern(t *testing.T) {
	g := graph.MustFromEdges(4, [][2]uint32{{0, 1}, {2, 3}}, []int32{1, 2, 1, 1})
	one := pattern.MustNew(1, nil)
	if got := countBT(t, g, one, 1); got != 4 {
		t.Fatalf("unlabeled single vertex: %d, want 4", got)
	}
	labeled := pattern.MustNew(1, nil, pattern.WithLabels([]int32{1}))
	if got := countBT(t, g, labeled, 1); got != 3 {
		t.Fatalf("labeled single vertex: %d, want 3", got)
	}
}

func TestBacktrackMatchesOracleOnRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g, err := dataset.ErdosRenyi(40, 7, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		for k := 2; k <= 5; k++ {
			if k == 5 && testing.Short() {
				continue
			}
			ps, err := canon.AllConnectedPatterns(k)
			if err != nil {
				t.Fatal(err)
			}
			for _, base := range ps {
				for _, iv := range []pattern.Induced{pattern.EdgeInduced, pattern.VertexInduced} {
					p := base.Variant(iv)
					want := refmatch.Count(g, p)
					got := countBT(t, g, p, 3)
					if got != want {
						t.Errorf("seed=%d pattern=%v: backtrack=%d oracle=%d", seed, p, got, want)
					}
				}
			}
		}
	}
}

func TestBacktrackLabeledMatchesOracle(t *testing.T) {
	g, err := dataset.ErdosRenyi(50, 8, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []*pattern.Pattern{
		pattern.Triangle(), pattern.Wedge(), pattern.TailedTriangle(),
		pattern.FourCycle(), pattern.ChordalFourCycle(), pattern.FourStar(),
	}
	labelings := [][]int32{
		{0, 0, 0, 0}, {0, 1, 2, 1}, {2, 2, 1, pattern.Unlabeled},
	}
	for _, shape := range shapes {
		for _, lab := range labelings {
			labels := lab[:shape.N()]
			p := pattern.MustNew(shape.N(), shape.Edges(), pattern.WithLabels(labels))
			for _, iv := range []pattern.Induced{pattern.EdgeInduced, pattern.VertexInduced} {
				q := p.Variant(iv)
				want := refmatch.Count(g, q)
				got := countBT(t, g, q, 2)
				if got != want {
					t.Errorf("pattern=%v: backtrack=%d oracle=%d", q, got, want)
				}
			}
		}
	}
}

func TestBacktrackStreamsUniqueCanonicalMatches(t *testing.T) {
	g, err := dataset.ErdosRenyi(30, 6, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*pattern.Pattern{
		pattern.Triangle(),
		pattern.TailedTriangle(),
		pattern.FourCycle().AsVertexInduced(),
		pattern.ChordalFourCycle(),
	} {
		pl, err := plan.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		auts := canon.Automorphisms(p)
		var mu sync.Mutex
		got := map[string]bool{}
		dups := 0
		var tally windowTally
		_, st, err := BacktrackCtx(context.Background(), g, pl, tally.sink(func(worker int, m []uint32) {
			c := canon.CanonicalMatch(p, m, auts)
			k := fmt.Sprint(c)
			mu.Lock()
			if got[k] {
				dups++
			}
			got[k] = true
			mu.Unlock()
		}), ExecOptions{Threads: 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if dups != 0 {
			t.Errorf("pattern %v: %d duplicate subgraphs emitted (symmetry breaking broken)", p, dups)
		}
		want := refmatch.Matches(g, p)
		if len(got) != len(want) {
			t.Errorf("pattern %v: %d unique matches, oracle has %d", p, len(got), len(want))
		}
		for _, m := range want {
			if !got[fmt.Sprint(m)] {
				t.Errorf("pattern %v: oracle match %v missing", p, m)
			}
		}
		if err := tally.check(st); err != nil {
			t.Errorf("pattern %v: %v", p, err)
		}
	}
}

func TestBacktrackMatchVertexOrder(t *testing.T) {
	// Path graph 0-1-2: the only wedge has center 1. Emitted matches must
	// be indexed by pattern vertex: wedge = path 0-1-2 with center 1.
	g := graph.MustFromEdges(3, [][2]uint32{{0, 1}, {1, 2}}, nil)
	p := pattern.Wedge() // edges 0-1, 1-2: center is pattern vertex 1
	pl, err := plan.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seen [][]uint32
	_, _, err = BacktrackCtx(context.Background(), g, pl, EachMatch(func(_ int, m []uint32) {
		mu.Lock()
		seen = append(seen, append([]uint32(nil), m...))
		mu.Unlock()
	}), ExecOptions{Threads: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 {
		t.Fatalf("got %d matches, want 1", len(seen))
	}
	if seen[0][1] != 1 {
		t.Fatalf("center of wedge bound to %d, want data vertex 1 (m=%v)", seen[0][1], seen[0])
	}
}

func TestBacktrackThreadCountInvariance(t *testing.T) {
	g, err := dataset.MiCo().Scaled(0.005).Generate()
	if err != nil {
		t.Fatal(err)
	}
	p := pattern.TailedTriangle().AsVertexInduced()
	want := countBT(t, g, p, 1)
	for _, threads := range []int{2, 4, 8} {
		if got := countBT(t, g, p, threads); got != want {
			t.Errorf("threads=%d: count %d, want %d", threads, got, want)
		}
	}
}

func TestBacktrackInstrumentation(t *testing.T) {
	g, err := dataset.ErdosRenyi(100, 10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := pattern.FourCycle().AsVertexInduced()
	pl, err := plan.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := BacktrackCtx(context.Background(), g, pl, nil, ExecOptions{Threads: 2, Instrument: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.SetOps == 0 || st.SetElems == 0 {
		t.Error("set operations not counted")
	}
	if st.SetOpTime <= 0 {
		t.Error("instrumented run has zero SetOpTime")
	}
	if st.TotalTime <= 0 {
		t.Error("TotalTime missing")
	}
	// Counting runs must not materialize matches.
	if st.Materialized != 0 || st.UDFCalls != 0 {
		t.Errorf("counting run materialized %d, UDF %d", st.Materialized, st.UDFCalls)
	}
}

// TestBacktrackPinned is the one-leaf identity: Backtrack — the trie
// executor on the one-leaf trie of its plan — reproduces what the
// single-plan loop nest it replaced (commit 272ad8f) produced on MG ×0.001
// for every connected pattern of up to four vertices under both semantics,
// two labeled patterns and two with explicit anti-edges: the count, the
// per-level selectivity of a counting pass (last level count-only) and of a
// streaming pass (every level materialized), Materialized and UDFCalls, at
// 1 and 4 threads, with the phase clocks on and off. Candidates counts the
// vertices a level examined, so on the labeled patterns' levels that read
// label rows it is lower than that executor's, which scanned whole rows and
// filtered (first pair of tables); behind a wrapper that hides LabelRow the
// levels scan again and its constants come back (second pair). Counts,
// Extended, Materialized and UDFCalls are the same on both.
func TestBacktrackPinned(t *testing.T) {
	g, err := dataset.MAG().Scaled(0.001).Generate()
	if err != nil {
		t.Fatal(err)
	}
	// The labeled patterns' tables (counted, streamed) when every level scans.
	scanning := map[string][2][][2]uint64{
		"n=3;e=0-1,1-2;l=0,1,-1": {
			{{726, 79}, {1059, 349}, {8816, 8816}},
			{{726, 79}, {1059, 349}, {9165, 8816}}},
		"n=4;e=0-1,1-2,2-3;l=0,0,1,0;v": {
			{{726, 230}, {3228, 349}, {8746, 2810}, {17093, 17093}},
			{{726, 230}, {3228, 349}, {8746, 2810}, {50955, 17093}}},
	}
	for _, tc := range []struct {
		pattern           string
		count             uint64
		counted, streamed [][2]uint64 // per level: Candidates, Extended
	}{
		{"n=2;e=0-1", 4789,
			[][2]uint64{{726, 726}, {4789, 4789}},
			[][2]uint64{{726, 726}, {4789, 4789}}},
		{"n=2;e=0-1;v", 4789,
			[][2]uint64{{726, 726}, {4789, 4789}},
			[][2]uint64{{726, 726}, {4789, 4789}}},
		{"n=3;e=0-2,1-2", 116007,
			[][2]uint64{{726, 726}, {9578, 9578}, {116007, 116007}},
			[][2]uint64{{726, 726}, {9578, 9578}, {116007, 116007}}},
		{"n=3;e=0-2,1-2;v", 106602,
			[][2]uint64{{726, 726}, {9578, 9578}, {106602, 106602}},
			[][2]uint64{{726, 726}, {9578, 9578}, {106602, 106602}}},
		{"n=3;e=0-1,0-2,1-2", 3135,
			[][2]uint64{{726, 726}, {4789, 4789}, {3135, 3135}},
			[][2]uint64{{726, 726}, {4789, 4789}, {3135, 3135}}},
		{"n=3;e=0-1,0-2,1-2;v", 3135,
			[][2]uint64{{726, 726}, {4789, 4789}, {3135, 3135}},
			[][2]uint64{{726, 726}, {4789, 4789}, {3135, 3135}}},
		{"n=4;e=0-2,1-3,2-3", 2615031,
			[][2]uint64{{726, 726}, {9578, 9578}, {241592, 232014}, {2615031, 2615031}},
			[][2]uint64{{726, 726}, {9578, 9578}, {241592, 232014}, {2670912, 2615031}}},
		{"n=4;e=0-2,1-3,2-3;v", 1840363,
			[][2]uint64{{726, 726}, {9578, 9578}, {222782, 213204}, {1840363, 1840363}},
			[][2]uint64{{726, 726}, {9578, 9578}, {222782, 213204}, {1840363, 1840363}}},
		{"n=4;e=0-3,1-3,2-3", 2070700,
			[][2]uint64{{726, 726}, {9578, 9578}, {116007, 116007}, {2070700, 2070700}},
			[][2]uint64{{726, 726}, {9578, 9578}, {116007, 116007}, {2070700, 2070700}}},
		{"n=4;e=0-3,1-3,2-3;v", 1732822,
			[][2]uint64{{726, 726}, {9578, 9578}, {106602, 106602}, {1732822, 1732822}},
			[][2]uint64{{726, 726}, {9578, 9578}, {106602, 106602}, {1732822, 1732822}}},
		{"n=4;e=0-3,1-2,1-3,2-3", 374134,
			[][2]uint64{{726, 726}, {9578, 9578}, {9405, 9405}, {374134, 374134}},
			[][2]uint64{{726, 726}, {9578, 9578}, {9405, 9405}, {392944, 374134}}},
		{"n=4;e=0-3,1-2,1-3,2-3;v", 304302,
			[][2]uint64{{726, 726}, {9578, 9578}, {9405, 9405}, {304302, 304302}},
			[][2]uint64{{726, 726}, {9578, 9578}, {9405, 9405}, {304302, 304302}}},
		{"n=4;e=0-2,0-3,1-2,1-3", 33792,
			[][2]uint64{{726, 726}, {4789, 4789}, {42296, 42296}, {33792, 33792}},
			[][2]uint64{{726, 726}, {4789, 4789}, {42296, 42296}, {33792, 33792}}},
		{"n=4;e=0-2,0-3,1-2,1-3;v", 16334,
			[][2]uint64{{726, 726}, {4789, 4789}, {36026, 36026}, {16334, 16334}},
			[][2]uint64{{726, 726}, {4789, 4789}, {36026, 36026}, {16334, 16334}}},
		{"n=4;e=0-2,0-3,1-2,1-3,2-3", 19468,
			[][2]uint64{{726, 726}, {4789, 4789}, {9405, 9405}, {19468, 19468}},
			[][2]uint64{{726, 726}, {4789, 4789}, {9405, 9405}, {19468, 19468}}},
		{"n=4;e=0-2,0-3,1-2,1-3,2-3;v", 15448,
			[][2]uint64{{726, 726}, {4789, 4789}, {9405, 9405}, {15448, 15448}},
			[][2]uint64{{726, 726}, {4789, 4789}, {9405, 9405}, {15448, 15448}}},
		{"n=4;e=0-1,0-2,0-3,1-2,1-3,2-3", 670,
			[][2]uint64{{726, 726}, {4789, 4789}, {3135, 3135}, {670, 670}},
			[][2]uint64{{726, 726}, {4789, 4789}, {3135, 3135}, {670, 670}}},
		{"n=4;e=0-1,0-2,0-3,1-2,1-3,2-3;v", 670,
			[][2]uint64{{726, 726}, {4789, 4789}, {3135, 3135}, {670, 670}},
			[][2]uint64{{726, 726}, {4789, 4789}, {3135, 3135}, {670, 670}}},
		{"n=3;e=0-1,1-2;l=0,1,-1", 8816,
			[][2]uint64{{726, 79}, {349, 349}, {8816, 8816}},
			[][2]uint64{{726, 79}, {349, 349}, {9165, 8816}}},
		{"n=4;e=0-1,1-2,2-3;l=0,0,1,0;v", 17093,
			[][2]uint64{{726, 230}, {349, 349}, {2810, 2810}, {17093, 17093}},
			[][2]uint64{{726, 230}, {349, 349}, {2810, 2810}, {17093, 17093}}},
		{"n=4;e=0-1,0-3,1-2,2-3;a=0-2", 48116,
			[][2]uint64{{726, 726}, {9578, 9578}, {106602, 106602}, {48116, 48116}},
			[][2]uint64{{726, 726}, {9578, 9578}, {106602, 106602}, {48116, 48116}}},
		{"n=4;e=0-1,0-2,0-3,1-2;a=1-3", 670396,
			[][2]uint64{{726, 726}, {9578, 9578}, {18810, 18810}, {670396, 670396}},
			[][2]uint64{{726, 726}, {9578, 9578}, {18810, 18810}, {689206, 670396}}},
	} {
		p, err := pattern.Parse(tc.pattern)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := plan.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, stream := range []bool{false, true} {
			for _, threads := range []int{1, 4} {
				for _, instrument := range []bool{false, true} {
					for _, rows := range []bool{true, false} {
						var g graph.Adjacency = g
						tables, labeled := scanning[tc.pattern]
						if rows {
							tables = [2][][2]uint64{tc.counted, tc.streamed}
						} else if g = (struct{ graph.Adjacency }{g}); !labeled {
							continue // an unlabeled pattern asks for no label row
						}
						var sink Sink
						var delivered atomic.Uint64
						var tally windowTally
						want, wantMatches := tables[0], uint64(0)
						if stream {
							sink = tally.sink(func(_ int, m []uint32) { delivered.Add(uint64(len(m))) })
							want, wantMatches = tables[1], tc.count
						}
						name := fmt.Sprintf("%s stream=%v threads=%d instrument=%v label-rows=%v", tc.pattern, stream, threads, instrument, rows)
						got, st, err := BacktrackCtx(context.Background(), g, pl, sink, ExecOptions{Threads: threads, Instrument: instrument}, nil)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if got != tc.count || st.Matches != tc.count {
							t.Errorf("%s: count %d (stats %d), pinned %d", name, got, st.Matches, tc.count)
						}
						var levels [][2]uint64
						for _, l := range st.Levels {
							levels = append(levels, [2]uint64{l.Candidates, l.Extended})
						}
						if fmt.Sprint(levels) != fmt.Sprint(want) {
							t.Errorf("%s: levels %v, pinned %v", name, levels, want)
						}
						if err := tally.check(st); err != nil {
							t.Errorf("%s: %v", name, err)
						}
						if k := uint64(p.N()); delivered.Load() != k*wantMatches || stream && (st.UDFCalls == 0 || st.UDFCalls > wantMatches) {
							t.Errorf("%s: %d UDF calls, %d vertices delivered; want %d matches of %d vertices in at most as many windows",
								name, st.UDFCalls, delivered.Load(), wantMatches, k)
						}
						if st.TriePasses != 1 || st.TriePatterns != 1 || len(st.TrieNodes) != p.N() {
							t.Errorf("%s: reported %d passes, %d patterns, %d trie nodes; want 1, 1, %d",
								name, st.TriePasses, st.TriePatterns, len(st.TrieNodes), p.N())
						}
					}
				}
			}
		}
	}
}

func TestBacktrackNilPlan(t *testing.T) {
	if _, _, err := BacktrackCtx(context.Background(), completeGraph(3), nil, nil, ExecOptions{}, nil); err == nil {
		t.Fatal("nil plan accepted")
	}
}

func TestStatsAdd(t *testing.T) {
	a := &Stats{SetOps: 1, Matches: 2, UDFCalls: 3}
	a.Add(&Stats{SetOps: 10, Matches: 20, UDFCalls: 30, Branches: 5})
	if a.SetOps != 11 || a.Matches != 22 || a.UDFCalls != 33 || a.Branches != 5 {
		t.Fatalf("merge wrong: %+v", a)
	}
}
