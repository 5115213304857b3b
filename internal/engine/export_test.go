package engine

import (
	"slices"

	"morphing/internal/plan"
)

// LeafChecks is what a counting pass over a trie settles for one of its
// count-only leaves: the bound depths left to probe, and whether the leaf
// counts a degree.
type LeafChecks struct {
	Probe  []int
	Degree bool
}

// CountingLeaves classifies tr as a counting pass does and returns the
// settlement of every count-only leaf, by trie node ID.
func CountingLeaves(tr *plan.Trie) map[int]LeafChecks {
	ps := getTriePass()
	defer ps.release()
	ps.tr = tr
	ps.classify()
	out := map[int]LeafChecks{}
	for _, n := range ps.nodes {
		if ei := &ps.info[n.ID]; ei.leaf {
			out[n.ID] = LeafChecks{Probe: slices.Clone(ei.check), Degree: ei.degree}
		}
	}
	return out
}
