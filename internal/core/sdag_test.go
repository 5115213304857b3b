package core

import (
	"testing"

	"morphing/internal/canon"
	"morphing/internal/pattern"
)

// upSet is d.UpSet for structures within the up-set bound.
func upSet(t testing.TB, d *SDAG, n *Node) []*Node {
	t.Helper()
	up, err := d.UpSet(n)
	if err != nil {
		t.Fatal(err)
	}
	return up
}

func TestBuildSDAGFourStar(t *testing.T) {
	// Up-set of the 4-star: star -> tailed triangle -> diamond -> 4-clique.
	d, err := BuildSDAG([]*pattern.Pattern{pattern.FourStar().AsVertexInduced()})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 4 {
		t.Fatalf("S-DAG has %d nodes, want 4", d.Len())
	}
	star := d.Node(pattern.FourStar())
	if star == nil {
		t.Fatal("query structure missing")
	}
	up := upSet(t, d, star)
	if len(up) != 4 {
		t.Fatalf("up-set size %d, want 4", len(up))
	}
	// Sorted by edge count descending: K4(6), diamond(5), TT(4), star(3).
	wantEdges := []int{6, 5, 4, 3}
	for i, n := range up {
		if n.Pattern.EdgeCount() != wantEdges[i] {
			t.Fatalf("up-set[%d] has %d edges, want %d", i, n.Pattern.EdgeCount(), wantEdges[i])
		}
	}
	if !canon.IsIsomorphic(up[0].Pattern, pattern.FourClique()) {
		t.Fatal("apex is not the 4-clique")
	}
	if got, err := d.StrictUpSet(star); err != nil || len(got) != 3 {
		t.Fatalf("strict up-set size %d (err %v), want 3", len(got), err)
	}
}

func TestBuildSDAGAllFourMotifs(t *testing.T) {
	// The three sparse 4-patterns together reach all six 4-vertex
	// connected structures (Appendix A.2).
	queries := []*pattern.Pattern{
		pattern.FourStar().AsVertexInduced(),
		pattern.Path(4).AsVertexInduced(),
		pattern.FourCycle().AsVertexInduced(),
	}
	d, err := BuildSDAG(queries)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 6 {
		t.Fatalf("S-DAG has %d nodes, want 6", d.Len())
	}
	// The cycle's up-set is {C4, diamond, K4}.
	cyc := d.Node(pattern.FourCycle())
	if got := len(upSet(t, d, cyc)); got != 3 {
		t.Fatalf("cycle up-set size %d, want 3", got)
	}
}

func TestBuildSDAGLabeled(t *testing.T) {
	// Labels multiply structures: a 4-star with one distinct leaf label
	// yields two distinct tailed triangles (join two same-labeled leaves
	// vs a mixed pair), as in Appendix A.1 / Fig. 16a.
	star := pattern.MustNew(4, [][2]int{{0, 1}, {0, 2}, {0, 3}},
		pattern.WithLabels([]int32{0, 0, 0, 1}))
	d, err := BuildSDAG([]*pattern.Pattern{star})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 6 {
		t.Fatalf("labeled S-DAG has %d nodes, want 6 (pa..pf of Fig. 16a)", d.Len())
	}
	byEdges := map[int]int{}
	for _, n := range d.Nodes() {
		byEdges[n.Pattern.EdgeCount()]++
	}
	// 1 star, 2 tailed triangles, 2 diamonds, 1 clique.
	if byEdges[3] != 1 || byEdges[4] != 2 || byEdges[5] != 2 || byEdges[6] != 1 {
		t.Fatalf("structure census by edges = %v, want 1/2/2/1", byEdges)
	}
}

func TestBuildSDAGMixedSizes(t *testing.T) {
	d, err := BuildSDAG([]*pattern.Pattern{pattern.Triangle(), pattern.FourCycle()})
	if err != nil {
		t.Fatal(err)
	}
	// Triangle is its own clique (1 node); 4-cycle contributes 3.
	if d.Len() != 4 {
		t.Fatalf("mixed-size S-DAG has %d nodes, want 4", d.Len())
	}
	tri := d.Node(pattern.Triangle())
	if len(upSet(t, d, tri)) != 1 {
		t.Fatal("triangle must be its own apex")
	}
}

func TestBuildSDAGRejectsBadQueries(t *testing.T) {
	if _, err := BuildSDAG([]*pattern.Pattern{nil}); err == nil {
		t.Fatal("nil query accepted")
	}
	disc := pattern.MustNew(4, [][2]int{{0, 1}, {2, 3}})
	if _, err := BuildSDAG([]*pattern.Pattern{disc}); err == nil {
		t.Fatal("disconnected query accepted")
	}
}

func TestSDAGDedupAcrossQueries(t *testing.T) {
	// The same structure queried twice (different numbering, different
	// variants) interns one node.
	a := pattern.TailedTriangle()
	b := pattern.MustNew(4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 3}}).AsVertexInduced()
	d, err := BuildSDAG([]*pattern.Pattern{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if d.Node(a) != d.Node(b) {
		t.Fatal("isomorphic queries interned separately")
	}
	if d.Len() != 3 { // TT, diamond, K4
		t.Fatalf("S-DAG has %d nodes, want 3", d.Len())
	}
}

func TestUpSetIsUpwardClosed(t *testing.T) {
	d, err := BuildSDAG([]*pattern.Pattern{pattern.Path(5)})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range d.Nodes() {
		inUp := map[uint64]bool{}
		for _, m := range upSet(t, d, n) {
			inUp[m.ID] = true
		}
		for _, m := range upSet(t, d, n) {
			for _, p := range m.Parents {
				if !inUp[p.ID] {
					t.Fatalf("up-set of %v missing parent %v of member %v", n.Pattern, p.Pattern, m.Pattern)
				}
			}
		}
	}
}

func TestSDAGParentChildConsistency(t *testing.T) {
	d, err := BuildSDAG([]*pattern.Pattern{pattern.FourStar(), pattern.Path(4)})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range d.Nodes() {
		for _, p := range n.Parents {
			if p.Pattern.EdgeCount() != n.Pattern.EdgeCount()+1 {
				t.Fatalf("parent of %v has %d edges", n.Pattern, p.Pattern.EdgeCount())
			}
			found := false
			for _, c := range p.Children {
				if c == n {
					found = true
				}
			}
			if !found {
				t.Fatalf("child link missing for %v -> %v", n.Pattern, p.Pattern)
			}
		}
	}
}
