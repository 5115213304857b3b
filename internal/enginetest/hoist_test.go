package enginetest

import (
	"context"
	"fmt"
	"testing"

	"morphing/internal/canon"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/refmatch"
)

// fourMotifs returns every connected 4-vertex structure under one
// semantics: edge-induced is the set morphing mines for 4-motif counting,
// vertex-induced the set the direct route mines.
func fourMotifs(t testing.TB, iv pattern.Induced) []*pattern.Pattern {
	t.Helper()
	all4, err := canon.AllConnectedPatterns(4)
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]*pattern.Pattern, len(all4))
	for i, p := range all4 {
		ps[i] = p.Variant(iv)
	}
	return ps
}

// TestTrieStatsPinned pins the per-node and per-level selectivity tables
// of the morphed and the direct 4-motif tries on MG ×0.001 to the values
// the per-candidate leaf executions of commit d6b00c2 produced. Hoisting
// changes how often a set is built and credits collapsed leaves in bulk;
// the report's tables must not change meaning because of it.
func TestTrieStatsPinned(t *testing.T) {
	g, err := dataset.MAG().Scaled(0.001).Generate()
	if err != nil {
		t.Fatal(err)
	}
	type node = [6]uint64 // Node, Depth, Patterns, Enters, Candidates, Extended
	for _, tc := range []struct {
		iv     pattern.Induced
		counts []uint64
		levels [][2]uint64 // Candidates, Extended
		nodes  []node
	}{
		{pattern.EdgeInduced,
			[]uint64{2615031, 2070700, 374134, 33792, 19468, 670},
			[][2]uint64{{726, 726}, {9578, 9578}, {302698, 293120}, {5113795, 5113795}},
			[]node{
				{0, 0, 6, 726, 726, 726},
				{1, 1, 6, 726, 9578, 9578},
				{2, 2, 2, 9578, 241592, 232014},
				{3, 3, 1, 232014, 2615031, 2615031},
				{4, 3, 1, 116007, 2070700, 2070700},
				{5, 2, 1, 9578, 9405, 9405},
				{6, 3, 1, 9405, 374134, 374134},
				{7, 2, 1, 4789, 42296, 42296},
				{8, 3, 1, 42296, 33792, 33792},
				{9, 2, 2, 4789, 9405, 9405},
				{10, 3, 1, 9405, 19468, 19468},
				{11, 3, 1, 3135, 670, 670},
			}},
		{pattern.VertexInduced,
			[]uint64{1840363, 1732822, 304302, 16334, 15448, 670},
			[][2]uint64{{726, 726}, {9578, 9578}, {277618, 268040}, {3909939, 3909939}},
			[]node{
				{0, 0, 6, 726, 726, 726},
				{1, 1, 6, 726, 9578, 9578},
				{2, 2, 2, 9578, 222782, 213204},
				{3, 3, 1, 213204, 1840363, 1840363},
				{4, 3, 1, 106602, 1732822, 1732822},
				{5, 2, 1, 9578, 9405, 9405},
				{6, 3, 1, 9405, 304302, 304302},
				{7, 2, 1, 4789, 36026, 36026},
				{8, 3, 1, 36026, 16334, 16334},
				{9, 2, 2, 4789, 9405, 9405},
				{10, 3, 1, 9405, 15448, 15448},
				{11, 3, 1, 3135, 670, 670},
			}},
	} {
		pl := allEngines()[0] // Peregrine, the benchmark's engine for 4-MC
		tr, err := engine.BuildTrie(pl, g, fourMotifs(t, tc.iv))
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 4} {
			opts, o := pl.ExecConfig()
			opts.Threads = threads
			opts.Instrument = threads == 4 // the clocks must not change what is counted
			counts, st, err := engine.BacktrackTrieCtx(context.Background(), g, tr, opts, o)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%v threads=%d", tc.iv, threads)
			if fmt.Sprint(counts) != fmt.Sprint(tc.counts) {
				t.Errorf("%s: counts %v, pinned %v", name, counts, tc.counts)
			}
			var levels [][2]uint64
			for _, l := range st.Levels {
				levels = append(levels, [2]uint64{l.Candidates, l.Extended})
			}
			if fmt.Sprint(levels) != fmt.Sprint(tc.levels) {
				t.Errorf("%s: levels %v, pinned %v", name, levels, tc.levels)
			}
			var nodes []node
			for _, n := range st.TrieNodes {
				nodes = append(nodes, node{uint64(n.Node), uint64(n.Depth), uint64(n.Patterns), n.Enters, n.Candidates, n.Extended})
			}
			if fmt.Sprint(nodes) != fmt.Sprint(tc.nodes) {
				t.Errorf("%s: trie nodes\n%v, pinned\n%v", name, nodes, tc.nodes)
			}
			if opts.Instrument && st.SetOpTime <= 0 {
				t.Errorf("%s: instrumented pass recorded no set-op time", name)
			}
		}
	}
}

// hoistGraphs returns the graphs the hoisting property is checked on:
// every generator recipe at tiny scale (its labels, skew and triangle
// closure kept), labeled and unlabeled random graphs, and hand-built ones
// aimed at the collapsed leaves' rank sums.
func hoistGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{}
	for _, r := range dataset.All() {
		r.Vertices, r.AvgDegree = 48, min(r.AvgDegree, 6)
		g, err := r.Generate()
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		gs[r.Name] = g
	}
	for _, labels := range []int{0, 2} {
		g, err := dataset.ErdosRenyi(40, 6, labels, int64(77+labels))
		if err != nil {
			t.Fatal(err)
		}
		gs[fmt.Sprintf("er-l%d", labels)] = g
	}
	for name, edges := range adversarialEdges() {
		n := uint32(0)
		for _, e := range edges {
			n = max(n, e[0]+1, e[1]+1)
		}
		labels := make([]int32, n) // two labels, so the labeled set matches here too
		for v := range labels {
			labels[v] = int32(v % 2)
		}
		g, err := graph.FromEdges(int(n), edges, labels)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gs[name] = g
	}
	return gs
}

// adversarialEdges are small graphs built against the edge cases of a
// collapsed leaf's rank sum.
func adversarialEdges() map[string][][2]uint32 {
	// A hub (vertex 0) adjacent to everything, whose other neighbors hang
	// off a single spoke: at depth 2 the hub row is the base of the 4-path
	// and 3-star leaves while the parent has one or two candidates, and
	// every bound vertex sits inside the base.
	var hub [][2]uint32
	for v := uint32(1); v < 20; v++ {
		hub = append(hub, [2]uint32{0, v})
	}
	hub = append(hub, [2]uint32{1, 2}, [2]uint32{18, 19}, [2]uint32{5, 19})
	// Two cliques sharing vertex 6, ids interleaved so windows with
	// lo >= hi, candidates equal to bound vertices and bound vertices
	// inside a leaf's window all occur.
	var cliques [][2]uint32
	a, b := []uint32{0, 2, 4, 6, 8, 10}, []uint32{6, 1, 3, 5, 7}
	for _, c := range [][]uint32{a, b} {
		for i := range c {
			for j := i + 1; j < len(c); j++ {
				cliques = append(cliques, [2]uint32{c[i], c[j]})
			}
		}
	}
	// A path and a star: most bases are empty or a single vertex.
	var sparse [][2]uint32
	for v := uint32(0); v < 9; v++ {
		sparse = append(sparse, [2]uint32{v, v + 1})
	}
	for v := uint32(11); v < 18; v++ {
		sparse = append(sparse, [2]uint32{10, v})
	}
	// Complete bipartite K(4,5): every 4-cycle and no triangle, so
	// intersect bases are full rows and difference bases empty.
	var bip [][2]uint32
	for u := uint32(0); u < 4; u++ {
		for v := uint32(4); v < 9; v++ {
			bip = append(bip, [2]uint32{u, v})
		}
	}
	return map[string][][2]uint32{"hub": hub, "cliques": cliques, "sparse": sparse, "bipartite": bip}
}

// hoistSets returns the pattern sets of the property: every connected
// pattern of up to 4 vertices in one set per semantics, the same set with
// two labels (labeled leaves read label rows or scan a hoisted base), and
// samples of the 5- and 6-vertex structures (bases there hoist across more
// than one frame) mixed with smaller patterns, so leaves hang at several
// depths.
func hoistSets(t testing.TB) map[string][]*pattern.Pattern {
	t.Helper()
	sets := map[string][]*pattern.Pattern{}
	for _, iv := range []pattern.Induced{pattern.EdgeInduced, pattern.VertexInduced} {
		var small, labeled, five, six []*pattern.Pattern
		for k := 3; k <= 6; k++ {
			ps, err := canon.AllConnectedPatterns(k)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range ps {
				switch {
				case k <= 4:
					small = append(small, p.Variant(iv))
					labels := []int32{0, 1, pattern.Unlabeled, int32(i % 2)}[:k]
					labeled = append(labeled, pattern.MustNew(k, p.Edges(), pattern.WithLabels(labels), pattern.WithInduced(iv)))
				case k == 5 && i%3 == 0:
					five = append(five, p.Variant(iv))
				case k == 6 && i%23 == 0:
					six = append(six, p.Variant(iv))
				}
			}
		}
		sets[fmt.Sprintf("le4-%v", iv)] = small
		sets[fmt.Sprintf("le4-labeled-%v", iv)] = labeled
		sets[fmt.Sprintf("5-%v", iv)] = append(five, small[:3]...)
		sets[fmt.Sprintf("6-%v", iv)] = append(six, small[2])
	}
	return sets
}

// TestTrieHoistingProperty is the hoisting identity: whatever the trie
// executor hoists, collapses or aliases, its counts equal the brute-force
// oracle and the per-pattern executor — over random and adversarial
// graphs, every pattern set above, every engine that plans through
// plan.Plan, both storage tiers (suiteTiers), 1 and 4 threads. CI reruns it
// under -race.
func TestTrieHoistingProperty(t *testing.T) {
	sets := hoistSets(t)
	oracle := map[string]uint64{} // graph/pattern → refmatch count, shared by the engines
	for base, plain := range hoistGraphs(t) {
		for _, tier := range suiteTiers {
			g, err := tier.of(plain)
			if err != nil {
				t.Fatal(err)
			}
			gname := base + "/" + tier.name
			for sname, set := range sets {
				for _, e := range allEngines() {
					var ps []*pattern.Pattern
					for _, p := range set {
						if canPlan(e, p) && (plain.Labeled() || !p.Labeled()) {
							ps = append(ps, p)
						}
					}
					if len(ps) < 2 {
						continue
					}
					tr, err := engine.BuildTrie(e, g, ps)
					if err != nil {
						t.Fatalf("%s %s %s: BuildTrie: %v", gname, sname, e.Name(), err)
					}
					for _, threads := range []int{1, 4} {
						opts, o := e.ExecConfig()
						opts.Threads = threads
						got, _, err := engine.BacktrackTrieCtx(context.Background(), g, tr, opts, o)
						if err != nil {
							t.Fatalf("%s %s %s: BacktrackTrie: %v", gname, sname, e.Name(), err)
						}
						for i, p := range ps {
							key := base + "/" + p.String()
							want, ok := oracle[key]
							if !ok {
								want = refmatch.Count(plain, p)
								oracle[key] = want
							}
							if got[i] != want {
								t.Errorf("%s %s %s threads=%d %v: trie %d, oracle %d", gname, sname, e.Name(), threads, p, got[i], want)
							}
							if threads == 1 {
								if per, _, err := e.CountCtx(context.Background(), g, p); err != nil || per != want {
									t.Errorf("%s %s %s %v: per-pattern %d (%v), oracle %d", gname, sname, e.Name(), p, per, err, want)
								}
							}
						}
					}
				}
			}
		}
	}
}
