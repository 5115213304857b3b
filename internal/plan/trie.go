package plan

import (
	"fmt"
	"slices"
)

// This file implements multi-pattern plan merging: the winner set of a
// morphed query rarely consists of unrelated patterns — Algorithm 1
// replaces one pattern with near-identical alternatives, so their matching
// orders share long prefixes. MergePlans folds a set of per-pattern Plans
// into a prefix trie in which each shared prefix is represented once; a
// trie-driven executor (engine.MatchTrieCtx) then enumerates every shared
// partial embedding a single time and fans out into the per-pattern
// subtrees, paying the expensive shallow exploration levels once per set
// instead of once per pattern.
//
// Sharing rule. Two plans share the trie node at level i when, for every
// level j <= i, they agree on the level's candidate signature: the
// Connect set (levels intersected), the Disconnect set (levels
// subtracted) and the label constraint. Equal signatures imply the bound
// partial patterns are isomorphic — Build records *every* back edge and
// anti-edge of the prefix in Connect/Disconnect, so the signature sequence
// IS the partial structure — and therefore the enumerated partial
// embeddings are identical sets. Symmetry-breaking conditions are
// deliberately excluded from the signature: conditions that diverge
// between plans are pushed down to the branch point as per-child filters
// (TrieBranch), so plans whose prefixes differ only in symmetry windows
// still share candidate generation and apply their own windows to the
// shared candidate set.

// TrieNode is one shared exploration level: a candidate computation
// (intersect Connect, subtract Disconnect, filter Label) executed once per
// partial embedding reaching it, with one or more symmetry branches
// hanging off it.
type TrieNode struct {
	// ID is the dense node index within the owning Trie, used to key
	// per-node selectivity counters.
	ID int
	// Depth is the exploration level this node binds (0 = root scan).
	Depth int

	Connect    []int
	Disconnect []int
	Label      int32

	// Patterns is the number of distinct plans whose path traverses this
	// node — the fan-in the shared candidate computation amortizes.
	Patterns int

	Branches []*TrieBranch

	// Class is the level's class, the same in every plan through the node.
	Class Class

	// Leaf: every branch is childless.
	Leaf bool
}

// TrieBranch applies one symmetry-condition set (a per-child filter pushed
// down from plans that agree on the enclosing node's candidate signature
// but diverge in conditions) to the node's candidates. Leaves lists the
// plans whose final level is this branch; Children continue deeper plans.
type TrieBranch struct {
	Greater []int
	Smaller []int

	Leaves   []int // plan indices completing at this branch
	Children []*TrieNode
}

// Trie is a set of plans merged on shared matching-order prefixes.
type Trie struct {
	// Plans are the merged plans, in input order; executor counts are
	// reported per plan index.
	Plans []*Plan
	Roots []*TrieNode

	// Nodes is the total trie node count (Σ per-plan levels minus shared
	// levels).
	Nodes int
	// SharedLevels counts the levels that reused an existing node during
	// merging — the candidate computations a trie-driven pass saves
	// relative to mining each plan separately.
	SharedLevels int
	// MaxSharedPrefix is the deepest consecutive-from-root prefix length
	// shared by at least two plans. A value >= 2 means some pair of
	// patterns shares at least the root scan and one intersection level,
	// which any two unlabeled connected plans do (every level 1 intersects
	// level 0 alone); only label-disjoint sets stay below it.
	MaxSharedPrefix int
	// MaxDepth is the deepest plan's level count.
	MaxDepth int

	// Nodes and branches a Reset took out of the trie, for the next one.
	freeNodes    []*TrieNode
	freeBranches []*TrieBranch
}

// MergePlans folds plans into a prefix trie. Every plan must be non-nil
// with a non-nil pattern; the trie keeps the given order for reporting
// counts per plan.
func MergePlans(plans []*Plan) (*Trie, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("plan: MergePlans needs at least one plan")
	}
	t := &Trie{}
	if err := t.Reset(plans...); err != nil {
		return nil, err
	}
	return t, nil
}

// Reset re-merges t from plans in place, reusing the nodes, branches and
// slices of whatever t held before: an executor that runs one plan after
// another through a pooled one-leaf trie builds it without allocating.
// Reset() empties the trie and drops every reference to its plans. After
// an error t is unusable until the next Reset.
func (t *Trie) Reset(plans ...*Plan) error {
	for _, r := range t.Roots {
		t.recycle(r)
	}
	clear(t.Plans)
	*t = Trie{Plans: append(t.Plans[:0], plans...), Roots: t.Roots[:0], freeNodes: t.freeNodes, freeBranches: t.freeBranches}
	for idx, pl := range plans {
		if pl == nil || pl.Pattern == nil {
			return fmt.Errorf("plan: MergePlans: plan %d is nil", idx)
		}
		if err := t.insert(pl, idx); err != nil {
			return err
		}
		t.MaxDepth = max(t.MaxDepth, pl.Pattern.N())
	}
	return nil
}

// recycle moves n's subtree to the free lists, emptied of everything but
// slice capacity: a trie emptied by Reset() holds on to nothing of its plans.
func (t *Trie) recycle(n *TrieNode) {
	for _, b := range n.Branches {
		for _, c := range b.Children {
			t.recycle(c)
		}
		*b = TrieBranch{Leaves: b.Leaves[:0], Children: b.Children[:0]}
		t.freeBranches = append(t.freeBranches, b)
	}
	*n = TrieNode{Branches: n.Branches[:0]}
	t.freeNodes = append(t.freeNodes, n)
}

// reuse pops a node or branch recycle freed, or makes a new one.
func reuse[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	x := (*free)[n-1]
	*free = (*free)[:n-1]
	return x
}

// insert threads one plan through the trie, reusing nodes whose candidate
// signatures match and branches whose condition sets match, and creating
// the remainder.
func (t *Trie) insert(pl *Plan, idx int) error {
	n := pl.Pattern.N()
	if n == 0 {
		return fmt.Errorf("plan: MergePlans: plan %d has no levels", idx)
	}
	nodes := &t.Roots
	var parent *TrieNode
	var br *TrieBranch
	sharedPrefix := 0
	prefixIntact := true
	for i := 0; i < n; i++ {
		label := pl.Pattern.Label(pl.Order[i])
		var node *TrieNode
		for _, c := range *nodes {
			if c.Label == label && slices.Equal(c.Connect, pl.Connect[i]) &&
				slices.Equal(c.Disconnect, pl.Disconnect[i]) {
				node = c
				break
			}
		}
		if node == nil {
			node = reuse(&t.freeNodes)
			node.ID, node.Depth = t.Nodes, i
			node.Connect, node.Disconnect, node.Label, node.Class = pl.Connect[i], pl.Disconnect[i], label, pl.Class[i]
			node.Leaf = true
			if parent != nil {
				parent.Leaf = false
			}
			t.Nodes++
			*nodes = append(*nodes, node)
			prefixIntact = false
		} else {
			t.SharedLevels++
			if prefixIntact {
				sharedPrefix = i + 1
			}
		}
		node.Patterns++
		br = nil
		for _, b := range node.Branches {
			if slices.Equal(b.Greater, pl.Greater[i]) && slices.Equal(b.Smaller, pl.Smaller[i]) {
				br = b
				break
			}
		}
		if br == nil {
			br = reuse(&t.freeBranches)
			br.Greater, br.Smaller = pl.Greater[i], pl.Smaller[i]
			node.Branches = append(node.Branches, br)
		}
		nodes, parent = &br.Children, node
	}
	br.Leaves = append(br.Leaves, idx)
	if sharedPrefix > t.MaxSharedPrefix {
		t.MaxSharedPrefix = sharedPrefix
	}
	return nil
}

// Walk visits every node in the trie, parents before children, in
// deterministic insertion order.
func (t *Trie) Walk(visit func(*TrieNode)) {
	var rec func(ns []*TrieNode)
	rec = func(ns []*TrieNode) {
		for _, n := range ns {
			visit(n)
			for _, b := range n.Branches {
				rec(b.Children)
			}
		}
	}
	rec(t.Roots)
}

// String summarizes the trie's sharing structure.
func (t *Trie) String() string {
	return fmt.Sprintf("plan-trie{%d plans, %d nodes, %d shared levels, max shared prefix %d}",
		len(t.Plans), t.Nodes, t.SharedLevels, t.MaxSharedPrefix)
}
