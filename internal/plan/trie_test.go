package plan

import (
	"fmt"
	"strings"
	"testing"

	"morphing/internal/pattern"
)

// shape renders everything an executor reads from a trie: its nodes and
// what every kind of pass lowers them to.
func shape(t *Trie) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s depth=%d plans=%d\n", t, t.MaxDepth, len(t.Plans))
	for _, pass := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
		var p Program
		p.Lower(t, pass[0], pass[1])
		fmt.Fprintf(&b, "stream %v label rows %v: order %v roots %v scans %v marks %v\n", pass[0], pass[1], p.Order, p.Roots, p.Scans, p.Marks)
		for i, op := range p.Ops {
			fmt.Fprintf(&b, " op %d kind %d src %d clock %d scan %v row label %d at %d settles %v dep %v/%v:",
				i, op.Kind, op.Src, op.Clock, op.Scan, op.RowLabel, op.At, op.Settles, op.LoDep, op.HiDep)
			for _, br := range op.Branches {
				fmt.Fprintf(&b, " [kids %v coll %v]", br.Kids, br.Coll)
			}
			b.WriteString("\n")
		}
	}
	t.Walk(func(n *TrieNode) {
		fmt.Fprintf(&b, "node %d depth %d conn %v disc %v label %d patterns %d class %+v leaf %v:",
			n.ID, n.Depth, n.Connect, n.Disconnect, n.Label, n.Patterns, n.Class, n.Leaf)
		for _, br := range n.Branches {
			fmt.Fprintf(&b, " [gt %v lt %v leaves %v children", br.Greater, br.Smaller, br.Leaves)
			for _, c := range br.Children {
				fmt.Fprintf(&b, " %d", c.ID)
			}
			b.WriteString("]")
		}
		b.WriteString("\n")
	})
	return b.String()
}

// TestTrieResetEqualsMergePlans: a trie re-merged in place — the pooled
// one-leaf trie of engine.Backtrack, rebuilt for every plan it runs — is the
// trie MergePlans builds from scratch, whatever it held before, and an
// emptied one holds on to nothing.
func TestTrieResetEqualsMergePlans(t *testing.T) {
	build := func(ps ...*pattern.Pattern) []*Plan {
		var plans []*Plan
		for _, p := range ps {
			pl, err := Build(p)
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, pl)
		}
		return plans
	}
	labeled := pattern.MustNew(3, pattern.Wedge().Edges(), pattern.WithLabels([]int32{0, 1, 0}))
	sets := [][]*Plan{
		build(pattern.FourClique()),
		build(pattern.Triangle(), pattern.FourClique(), pattern.TailedTriangle(), pattern.FourCycle().AsVertexInduced()),
		build(pattern.Edge()),
		build(labeled, pattern.Wedge(), pattern.House()),
		build(pattern.FourStar().AsVertexInduced()),
	}
	var reused Trie
	for round := 0; round < 2; round++ {
		for i, plans := range sets {
			fresh, err := MergePlans(plans)
			if err != nil {
				t.Fatal(err)
			}
			if err := reused.Reset(plans...); err != nil {
				t.Fatal(err)
			}
			if got, want := shape(&reused), shape(fresh); got != want {
				t.Fatalf("round %d set %d: re-merged trie\n%s\nMergePlans\n%s", round, i, got, want)
			}
		}
	}
	if err := reused.Reset(); err != nil {
		t.Fatal(err)
	}
	if len(reused.Plans) != 0 || len(reused.Roots) != 0 || reused.Nodes != 0 {
		t.Fatalf("emptied trie still holds %s", &reused)
	}
	for _, n := range reused.freeNodes {
		if n.Connect != nil || n.Disconnect != nil || len(n.Branches) != 0 || n.Class.Bound != nil || n.Class.PConn != nil {
			t.Fatalf("recycled node still refers to a plan: %+v", n)
		}
	}
	if _, err := MergePlans(nil); err == nil {
		t.Fatal("MergePlans accepted an empty plan set")
	}
	if err := reused.Reset(nil); err == nil {
		t.Fatal("Reset accepted a nil plan")
	}
}
