package engine_test

import (
	"testing"

	"morphing/internal/canon"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graphpi"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/plan"
)

// planTrie merges the plans pl makes for ps on a small random graph, the
// one GraphPi prices its orders on.
func planTrie(t *testing.T, pl engine.Engine, ps []*pattern.Pattern) *plan.Trie {
	t.Helper()
	g, err := dataset.ErdosRenyi(60, 8, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := engine.BuildTrie(pl, g, ps)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// countingLeaves returns tr's count-only leaves: the childless nodes.
func countingLeaves(tr *plan.Trie) []*plan.TrieNode {
	var leaves []*plan.TrieNode
	tr.Walk(func(n *plan.TrieNode) {
		if n.Leaf {
			leaves = append(leaves, n)
		}
	})
	return leaves
}

// TestVertexInducedLeavesProbeNothing: under Peregrine's plans, every
// connected 3–5-vertex pattern's vertex-induced variant — alone, and merged
// with the other variants of its size — leaves no count-only leaf a bound
// depth to probe, because the pattern names an edge or an anti-edge
// between every pair of levels. Edge-induced variants still probe: the
// 4-vertex path leaves its last level unsure whether the far end of the
// path, bound above it, is adjacent to its neighbour.
func TestVertexInducedLeavesProbeNothing(t *testing.T) {
	pl := peregrine.New(1)
	for k := 3; k <= 5; k++ {
		shapes, err := canon.AllConnectedPatterns(k)
		if err != nil {
			t.Fatal(err)
		}
		var all []*pattern.Pattern
		for _, s := range shapes {
			p := s.AsVertexInduced()
			all = append(all, p)
			for _, n := range countingLeaves(planTrie(t, pl, []*pattern.Pattern{p})) {
				if len(n.Class.Check()) > 0 {
					t.Errorf("%v: leaf node %d probes depths %v", p, n.ID, n.Class.Check())
				}
			}
		}
		for _, n := range countingLeaves(planTrie(t, pl, all)) {
			if len(n.Class.Check()) > 0 {
				t.Errorf("merged %d-vertex set: leaf node %d probes depths %v", k, n.ID, n.Class.Check())
			}
		}
	}
	probes := false
	for _, n := range countingLeaves(planTrie(t, pl, []*pattern.Pattern{pattern.Path(4)})) {
		probes = probes || len(n.Class.Check()) > 0
	}
	if !probes {
		t.Error("the edge-induced 4-vertex path's leaf probes nothing")
	}
}

// TestGraphPiTailIsADegreeLeaf: GraphPi orders the edge-induced tailed
// triangle [1 2 0 3], hanging the pendant vertex off the deepest triangle
// level. Both other triangle vertices are its neighbours in every match,
// so the leaf has nothing to probe and counts the degree of the vertex at
// depth 2 minus two.
func TestGraphPiTailIsADegreeLeaf(t *testing.T) {
	tr := planTrie(t, graphpi.New(1), []*pattern.Pattern{pattern.TailedTriangle()})
	leaves := countingLeaves(tr)
	if len(leaves) != 1 {
		t.Fatalf("%d count-only leaves, want 1", len(leaves))
	}
	if n := leaves[0]; !n.Degree || n.Class.NAlways != 2 {
		t.Errorf("order %v: leaf node %d is no degree leaf less two (probes %v, always %v)", tr.Plans[0].Order, n.ID, n.Class.Check(), n.Class.Always())
	}
}
