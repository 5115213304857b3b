package plan

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"morphing/internal/pattern"
)

// A pass runs a merged trie as a program: one Op per node, decided once per
// pass by Lower from the node's class, its place in the trie, the pass kind
// and whether the graph serves label rows. The executor runs an op with one
// switch over its kind; what it still decides per execution depends on the
// data only (a hub's bitmap, a row's upper offset, a label directory's
// groups). The ops are data, in the manner of a compiled schedule.

// OpKind is what an execution of a node runs, from a closed set.
type OpKind uint8

const (
	OpBind      OpKind = iota // build the set, settle what ends here, bind each candidate and run the children its window admits
	OpSettle                  // a leaf: build the set and settle every branch's window of it
	OpBindsNone               // every child collapsed: build the set, count the children by rank sums, settle
	OpRoot                    // depth 0: test the vertex in hand's label, bind it, settle the leaves, run the children
	OpFan                     // label siblings: one walk of one row's label directory hands each member its slice
	OpCollapsed               // counted by its parent (OpBindsNone or OpBind), never executed
	// Count leaves, counting passes only: a leaf of one branch, counted
	// without its set. They come last, so that one comparison finds them.
	OpCountDegree // the length of its one row
	OpCountRows   // its own lists, the last operation count-only
	OpCountMerge  // its held base intersected with the binding row
	OpCountDiff   // its held base less the binding row
	OpCountMarked // its held base less the binding row by bit probes into the base's bitmap (a hub: OpCountDiff)
	OpCountHeld   // its held base inside the window
	OpCountFan    // the label slice its fan hands in
	NumOpKinds
)

// Src is where a node's set comes from.
type Src uint8

const (
	SrcRows  Src = iota // its own lists: the smallest row, intersected and differenced with the others
	SrcRow              // its one Connect row, or that row's label slice
	SrcRaw              // the raw set the ancestor at depth At materialized, narrowed by the binding part
	SrcBuilt            // its own base, rebuilt once per binding of depth At, narrowed by the binding part
	SrcFan              // the label slice its fan hands in
)

// Clock is what an instrumented execution charges to the set-operation
// clock.
type Clock uint8

const (
	ClockNone  Clock = iota // nothing: an ancestor clocks it, or it is a root or a fan
	ClockOwn                // its own set building
	ClockWhole              // the whole execution: a counting pass's leaf or parent of one
)

// Op is one node's program for a pass. What every execution reads first sits
// in the first 16 bytes, and an Op is 48, so that part never straddles a
// cache line.
type Op struct {
	Kind     OpKind
	Src      Src
	Clock    Clock
	Scan     bool  // labeled, and no operand row carries the label: the set is filtered by label
	RowLabel int32 // the label the operand rows are read under; pattern.Unlabeled: whole rows
	// SrcRaw: the depth whose raw set is the base; SrcBuilt: the base's
	// deepest operand (Class.At); OpFan: the depth whose row it walks.
	At           int32
	Settles      bool // some branch completes a plan or has a collapsed child
	LoDep, HiDep bool // OpCollapsed: the window's low / high end depends on the parent's vertex

	Node     *TrieNode  // nil for a fan
	Branches []OpBranch // one per branch of Node; a fan has one, listing its members
}

// OpBranch is what a node runs below one of its branches.
type OpBranch struct {
	*TrieBranch         // its windows and leaves; nil in a fan
	Kids        []int32 // the ops run for each bound candidate the window admits (a fan: its members)
	Coll        []int32 // the collapsed children, counted by the node over its candidates
}

// Members returns a fan's member ops, in ascending label order.
func (o *Op) Members() []int32 { return o.Branches[0].Kids }

// Program is a trie lowered for one pass. Its buffers only grow, so a pooled
// program lowers a trie no larger than one it has lowered without
// allocating.
type Program struct {
	Ops   []Op    // by node ID, then the fans
	Order []int32 // node IDs, parents before children (Trie.Walk's order)
	Roots []int32 // the root nodes' IDs
	Scans bool    // some op filters its set by label
	Marks bool    // some op is OpCountMarked

	stream, labelRows bool
	branches          []OpBranch
	ids               []int32
	group             []*TrieNode
	rowLabels         [pattern.MaxVertices]int32 // the RowLabel of the node in hand's ancestor at each depth
}

// Lower lowers tr into p for a counting pass (stream false) or a streaming
// one, on a graph that serves label rows or not.
func (p *Program) Lower(tr *Trie, stream, labelRows bool) {
	n := tr.Nodes
	// A fan has two members or more, so there are fewer fans than nodes; a
	// node sits in one list, a fan in one more; a branch holds a child or a
	// leaf, a fan holds one.
	if cap(p.Ops) < 2*n || cap(p.branches) < 2*n+len(tr.Plans) {
		p.Ops, p.Order, p.Roots = make([]Op, 0, 2*n), make([]int32, 0, n), make([]int32, 0, n)
		p.ids, p.group, p.branches = make([]int32, 0, 2*n), make([]*TrieNode, 0, n), make([]OpBranch, 0, 2*n+len(tr.Plans))
	}
	p.Ops, p.Order, p.Roots, p.ids, p.branches = p.Ops[:n], p.Order[:0], p.Roots[:0], p.ids[:0], p.branches[:0]
	p.Scans, p.Marks, p.stream, p.labelRows = false, false, stream, labelRows
	for _, r := range tr.Roots {
		p.Roots = append(p.Roots, int32(r.ID))
		p.lower(r, false)
	}
}

// alone is the pooled scratch CountingOps lowers a plan in.
type alone struct {
	pl   Plan // a copy: the caller's plan stays where it is
	tr   Trie
	prog Program
}

var alones = sync.Pool{New: func() any { return new(alone) }}

// CountingOps appends to dst the ops of pl's own counting pass on a tier that
// serves label rows by level (its one-leaf trie lowered: node i is level i),
// Kind, Src and At only; it allocates nothing but dst's growth once warm.
func (pl *Plan) CountingOps(dst []Op) []Op {
	a := alones.Get().(*alone)
	a.pl = *pl
	_ = a.tr.Reset(&a.pl) // a plan without levels lowers to no ops
	a.prog.Lower(&a.tr, false, true)
	for _, op := range a.prog.Ops[:len(pl.Order)] {
		dst = append(dst, Op{Kind: op.Kind, Src: op.Src, At: op.At})
	}
	a.tr.Reset() // drops the plan's lists; the program points only into a
	a.pl = Plan{}
	alones.Put(a)
	return dst
}

// Release drops every reference to the trie lowered last.
func (p *Program) Release() {
	clear(p.Ops)
	clear(p.branches)
	clear(p.group[:cap(p.group)])
}

// lower fills the ops of n's subtree; clocked says an ancestor clocks n's
// whole execution.
func (p *Program) lower(n *TrieNode, clocked bool) {
	p.Order = append(p.Order, int32(n.ID))
	c, br, unlabeled := &n.Class, n.Branches, n.Label == pattern.Unlabeled
	op := Op{Node: n, RowLabel: pattern.Unlabeled}
	switch {
	case c.Built:
		op.Src, op.At = SrcBuilt, int32(c.At)
		// The deepest ancestor with the base's lists whose raw set is whole:
		// one whose rows carried its label materialized that label's share.
		for raw := c.Raw; raw != 0; raw &^= 1 << (bits.Len16(raw) - 1) {
			if a := bits.Len16(raw) - 1; p.rowLabels[a] == pattern.Unlabeled {
				op.Src, op.At = SrcRaw, int32(a)
				break
			}
		}
	case len(n.Connect) == 1 && len(n.Disconnect) == 0:
		op.Src = SrcRow
	}
	if !unlabeled && n.Depth > 0 { // a root tests its own vertex
		if p.labelRows && (op.Src != SrcRaw || len(c.BConn) > 0) {
			op.RowLabel = n.Label
		} else {
			op.Scan, p.Scans = true, true
		}
	}
	p.rowLabels[n.Depth] = op.RowLabel
	whole, bind := !p.stream && n.Leaf, false
	for _, b := range br {
		for _, child := range b.Children {
			whole = whole || !p.stream && child.Leaf
		}
	}
	switch {
	case n.Depth == 0: // a root clocks nothing: its children start over
	case whole && !clocked:
		op.Clock, clocked = ClockWhole, true
	case !clocked:
		op.Clock = ClockOwn
	}
	for _, b := range br {
		for _, child := range b.Children {
			p.lower(child, clocked)
			bind = bind || p.Ops[child.ID].Kind != OpCollapsed
		}
	}
	switch {
	case n.Depth == 0:
		op.Kind = OpRoot
	case n.Leaf && (p.stream || len(br) > 1):
		op.Kind = OpSettle
	case bind:
		op.Kind = OpBind
	case !n.Leaf:
		op.Kind = OpBindsNone
	// Below: a counting pass's leaf of one branch.
	case unlabeled && len(c.BConn)+len(c.BDisc) == 0:
		op.Kind = OpCollapsed
		op.LoDep, op.HiDep = slices.Contains(br[0].Greater, n.Depth-1), slices.Contains(br[0].Smaller, n.Depth-1)
	case unlabeled && op.Src == SrcRow && len(c.Check())+len(br[0].Greater)+len(br[0].Smaller) == 0:
		op.Kind = OpCountDegree
	case !c.Built:
		op.Kind = OpCountRows
	case len(c.BConn) > 0:
		op.Kind = OpCountMerge
	case unlabeled && len(c.BDisc) > 0:
		op.Kind, p.Marks = OpCountMarked, true
	case len(c.BDisc) > 0:
		op.Kind = OpCountDiff
	default:
		op.Kind = OpCountHeld
	}
	at := len(p.branches)
	p.branches = p.branches[:at+len(br)]
	for bi, b := range br {
		ob := p.branch(b)
		op.Settles = op.Settles || len(b.Leaves)+len(ob.Coll) > 0
		p.branches[at+bi] = ob
	}
	op.Branches = p.branches[at : at+len(br) : at+len(br)]
	p.Ops[n.ID] = op
}

// branch lists what a node runs below b: the collapsed children are the
// node's to count; children reading the label slices of one row — a single
// Connect row, no Disconnect row, a label the row carries — are fanned when
// there are two or more, in ascending label order (the trie shares nodes
// on the label, so none repeats); the rest run one by one, then the fans.
func (p *Program) branch(b *TrieBranch) OpBranch {
	group := p.group[:0]
	for _, child := range b.Children {
		if c := &p.Ops[child.ID]; c.Kind != OpCollapsed && c.RowLabel != pattern.Unlabeled && c.Src == SrcRow {
			group = append(group, child)
		}
	}
	slices.SortFunc(group, func(a, b *TrieNode) int {
		return cmp.Or(cmp.Compare(a.Connect[0], b.Connect[0]), cmp.Compare(a.Label, b.Label))
	})
	var fans [pattern.MaxVertices][]*TrieNode
	nf := 0
	for i, k := 0, 1; i < len(group); i, k = k, k+1 {
		for k < len(group) && group[k].Connect[0] == group[i].Connect[0] {
			k++
		}
		if k-i > 1 {
			fans[nf], nf = group[i:k], nf+1
			for _, m := range group[i:k] {
				if mo := &p.Ops[m.ID]; mo.Kind == OpCountRows {
					mo.Src, mo.Kind = SrcFan, OpCountFan
				} else {
					mo.Src = SrcFan
				}
			}
		}
	}
	p.group = group
	i0 := len(p.ids)
	for _, child := range b.Children {
		if p.Ops[child.ID].Kind == OpCollapsed {
			p.ids = append(p.ids, int32(child.ID))
		}
	}
	ob := OpBranch{TrieBranch: b, Coll: p.ids[i0:len(p.ids):len(p.ids)]}
	i0 = len(p.ids)
	for _, child := range b.Children {
		if c := &p.Ops[child.ID]; c.Kind != OpCollapsed && c.Src != SrcFan {
			p.ids = append(p.ids, int32(child.ID))
		}
	}
	for f := range fans[:nf] {
		p.ids = append(p.ids, int32(len(p.Ops)+f))
	}
	ob.Kids = p.ids[i0:len(p.ids):len(p.ids)]
	for _, f := range fans[:nf] {
		m0 := len(p.ids)
		for _, m := range f {
			p.ids = append(p.ids, int32(m.ID))
		}
		p.branches = append(p.branches, OpBranch{Kids: p.ids[m0:len(p.ids):len(p.ids)]})
		p.Ops = append(p.Ops, Op{Kind: OpFan, At: int32(f[0].Connect[0]), Branches: p.branches[len(p.branches)-1:]})
	}
	return ob
}
