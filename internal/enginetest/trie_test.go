package enginetest

import (
	"context"
	"testing"

	"morphing/internal/canon"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/refmatch"
)

// canPlan reports whether the engine can plan p at all (the same
// capability surface as its native matching paths).
func canPlan(e engine.Engine, p *pattern.Pattern) bool {
	if e.SupportsInduced(p.Induced()) {
		return true
	}
	return p.Induced() == pattern.VertexInduced && p.IsClique()
}

// trieTestSets are pattern sets with real prefix sharing: same-size
// unlabeled patterns planned by degree-directed default orders share at
// least the level-0/level-1 structure.
func trieTestSets(t *testing.T) [][]*pattern.Pattern {
	t.Helper()
	all4, err := canon.AllConnectedPatterns(4)
	if err != nil {
		t.Fatal(err)
	}
	edge4 := make([]*pattern.Pattern, len(all4))
	vert4 := make([]*pattern.Pattern, len(all4))
	for i, p := range all4 {
		edge4[i] = p.Variant(pattern.EdgeInduced)
		vert4[i] = p.Variant(pattern.VertexInduced)
	}
	return [][]*pattern.Pattern{
		{pattern.Triangle(), pattern.FourStar(), pattern.TailedTriangle()},
		edge4,
		vert4,
		{pattern.FourCycle().AsVertexInduced(), pattern.FourClique(),
			pattern.TailedTriangle()},
	}
}

// TestTrieCountsMatchPerPattern is the merge's correctness contract: on
// every engine, mining a whole pattern set in one pass of the merged trie
// must produce byte-identical counts to that engine's one-leaf executions
// (and to the brute-force oracle).
func TestTrieCountsMatchPerPattern(t *testing.T) {
	for _, labels := range []int{0, 2} {
		forEachSuite(t, 21, labels, func(t *testing.T, g graph.Adjacency, plain *graph.Graph) {
			for si, set := range trieTestSets(t) {
				for _, e := range allEngines() {
					var ps []*pattern.Pattern
					for _, p := range set {
						if canPlan(e, p) {
							ps = append(ps, p)
						}
					}
					if len(ps) < 2 {
						continue
					}
					tr, err := engine.BuildTrie(e, g, ps)
					if err != nil {
						t.Fatalf("set %d %s: BuildTrie: %v", si, e.Name(), err)
					}
					opts, o := e.ExecConfig()
					got, st, err := engine.BacktrackTrieCtx(context.Background(), g, tr, opts, o)
					if err != nil {
						t.Fatalf("set %d %s: BacktrackTrie: %v", si, e.Name(), err)
					}
					if st.TriePasses != 1 || st.TriePatterns != uint64(len(ps)) {
						t.Errorf("set %d %s: trie stats passes=%d patterns=%d, want 1/%d",
							si, e.Name(), st.TriePasses, st.TriePatterns, len(ps))
					}
					for i, p := range ps {
						want, _, err := e.CountCtx(context.Background(), g, p)
						if err != nil {
							t.Fatalf("set %d %s %v: %v", si, e.Name(), p, err)
						}
						if got[i] != want {
							t.Errorf("set %d %s pattern=%v: trie count %d, per-pattern %d",
								si, e.Name(), p, got[i], want)
						}
						if labels == 0 {
							if oracle := refmatch.Count(plain, p); got[i] != oracle {
								t.Errorf("set %d %s pattern=%v: trie count %d, oracle %d",
									si, e.Name(), p, got[i], oracle)
							}
						}
					}
				}
			}
		})
	}
}

// TestTrieSharesPrefixes pins that merging actually shares work on a
// set that must share: all unlabeled 4-vertex patterns start with a
// degree-ordered edge extension, so the trie must be smaller than the
// sum of the per-pattern plans and record shared levels plus per-node
// selectivity telemetry.
func TestTrieSharesPrefixes(t *testing.T) {
	forEachSuite(t, 21, 0, func(t *testing.T, g graph.Adjacency, plain *graph.Graph) {
		pl := allEngines()[0] // Peregrine: plan.Build default orders
		all4, err := canon.AllConnectedPatterns(4)
		if err != nil {
			t.Fatal(err)
		}
		ps := make([]*pattern.Pattern, len(all4))
		totalLevels := 0
		for i, p := range all4 {
			ps[i] = p.Variant(pattern.EdgeInduced)
			totalLevels += p.N()
		}
		tr, err := engine.BuildTrie(pl, g, ps)
		if err != nil {
			t.Fatal(err)
		}
		if tr.SharedLevels == 0 || tr.MaxSharedPrefix < 2 {
			t.Fatalf("4-vertex edge-induced set shares no prefix: %+v", tr)
		}
		if tr.Nodes >= totalLevels {
			t.Errorf("trie has %d nodes, no smaller than %d unshared plan levels", tr.Nodes, totalLevels)
		}
		opts, o := pl.ExecConfig()
		_, st, err := engine.BacktrackTrieCtx(context.Background(), g, tr, opts, o)
		if err != nil {
			t.Fatal(err)
		}
		if st.TrieSharedLevels != uint64(tr.SharedLevels) {
			t.Errorf("stats shared levels %d, trie %d", st.TrieSharedLevels, tr.SharedLevels)
		}
		if len(st.TrieNodes) != tr.Nodes {
			t.Fatalf("per-node telemetry has %d entries, trie has %d nodes", len(st.TrieNodes), tr.Nodes)
		}
		for _, tn := range st.TrieNodes {
			if tn.Enters == 0 && tn.Depth == 0 {
				t.Errorf("root node %d never entered", tn.Node)
			}
			if tn.Extended > tn.Candidates {
				t.Errorf("node %d extended %d > candidates %d", tn.Node, tn.Extended, tn.Candidates)
			}
		}
	})
}

// fuzzPool is the pattern pool the differential fuzzer draws subsets
// from: every connected 3- and 4-vertex structure, both semantics.
func fuzzPool() []*pattern.Pattern {
	var pool []*pattern.Pattern
	for k := 3; k <= 4; k++ {
		ps, err := canon.AllConnectedPatterns(k)
		if err != nil {
			panic(err)
		}
		for _, p := range ps {
			pool = append(pool, p.Variant(pattern.EdgeInduced), p.Variant(pattern.VertexInduced))
		}
	}
	return pool
}

// FuzzTrieDifferential pits one pass of the merged trie against the loop
// of one-leaf tries (Peregrine's CountCtx per pattern: the same executor
// without merging, so without shared nodes, sibling branches or leaves at several
// depths) and the refmatch oracle, on random pattern subsets over seeded
// random graphs (shape 0) and the hand-built graphs aimed at the
// collapsed leaves' rank sums (shape 1.., adversarialEdges). Any count
// divergence is a bug in either the plan merge or the trie interpreter.
func FuzzTrieDifferential(f *testing.F) {
	f.Add(int64(1), uint32(0b111), uint8(2), uint8(0))
	f.Add(int64(21), uint32(0xffff), uint8(3), uint8(0))
	f.Add(int64(7), uint32(0b1010101), uint8(1), uint8(0))
	f.Add(int64(99), uint32(0b110000011), uint8(4), uint8(0))
	adversarial := hoistGraphs(f)
	shapes := []string{"hub", "cliques", "sparse", "bipartite"}
	for i := range shapes {
		// Three 4-vertex structures in both semantics, then all six
		// edge-induced (each leaf of that trie but two is collapsed) and
		// all six vertex-induced (difference bases).
		f.Add(int64(0), uint32(0xfffffff0), uint8(i), uint8(i+1))
		f.Add(int64(0), uint32(0x55555550), uint8(3), uint8(i+1))
		f.Add(int64(0), uint32(0xaaaaaaa0), uint8(1), uint8(i+1))
	}
	pool := fuzzPool()
	f.Fuzz(func(t *testing.T, seed int64, mask uint32, threads, shape uint8) {
		g, err := dataset.ErdosRenyi(30, 5, 0, seed)
		if err != nil {
			t.Skip()
		}
		if shape > 0 {
			g = adversarial[shapes[int(shape-1)%len(shapes)]]
		}
		var ps []*pattern.Pattern
		for i, p := range pool {
			if mask&(1<<(i%32)) != 0 {
				ps = append(ps, p)
			}
			if len(ps) == 6 {
				break
			}
		}
		if len(ps) == 0 {
			t.Skip()
		}
		e := allEngines()[0] // Peregrine accepts both semantics
		tr, err := engine.BuildTrie(e, g, ps)
		if err != nil {
			t.Fatalf("BuildTrie: %v", err)
		}
		opts, o := e.ExecConfig()
		opts.Threads = int(threads%4) + 1
		got, _, err := engine.BacktrackTrieCtx(context.Background(), g, tr, opts, o)
		if err != nil {
			t.Fatalf("BacktrackTrie: %v", err)
		}
		looped := make([]uint64, len(ps))
		for i, p := range ps {
			if looped[i], _, err = e.CountCtx(context.Background(), g, p); err != nil {
				t.Fatalf("Count: %v", err)
			}
		}
		for i, p := range ps {
			if oracle := refmatch.Count(g, p); got[i] != oracle || looped[i] != oracle {
				t.Errorf("pattern %v: merged trie %d, loop of one-leaf tries %d, oracle %d", p, got[i], looped[i], oracle)
			}
		}
	})
}
