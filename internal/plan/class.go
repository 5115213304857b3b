package plan

import (
	"slices"

	"morphing/internal/pattern"
)

// Class is the plan's facts about one level's candidate computation
// (bind-time hoisting, DESIGN §12), fixed when the plan is built. It depends
// only on the (Connect, Disconnect, label) sequence from the root through
// the level, the key MergePlans shares nodes on, so the trie node carries it
// too. What a node runs in a pass is its Op, which Lower decides from it.
//
// A level at depth k runs once per vertex bound at d = k-1: its lists split
// into the prefix part (below d) and the binding part (BConn or BDisc: d).
// A prefix of two or more Connect rows, or of one narrowed by differences,
// is a base built once per binding of level At (Built) from PConn and
// PDisc, then Last, unless the pass aliases the raw set of an ancestor
// with those lists (Raw). Any other level runs its own lists.
type Class struct {
	Built        bool
	LastDisc     bool   // Built: Last is a Disconnect level
	At, Last     int    // Built: the deepest operand, and the one applied last
	Raw          uint16 // Built: depths of the ancestors whose lists are the prefix part
	PConn, PDisc []int  // Built: the base's operands but Last
	BConn, BDisc []int  // the binding part

	// Bound lists the bound depths a count-only level corrects for
	// (settleChecks): the first NAlways are subtracted when they pass its
	// filter, the rest when a probe finds they qualify.
	Bound   []int
	NAlways int
}

// Always returns the bound depths that qualify in every match.
func (c *Class) Always() []int { return c.Bound[:c.NAlways] }

// Check returns the bound depths left to probe.
func (c *Class) Check() []int { return c.Bound[c.NAlways:] }

// classify fills pl.Class from the plan's lists and labels, appending the
// Bound lists to bound.
func (pl *Plan) classify(bound []int) {
	pl.Class = make([]Class, len(pl.Order))
	for i := range pl.Class {
		c := &pl.Class[i]
		at := len(bound)
		bound, c.NAlways = pl.settleChecks(bound, i)
		c.Bound = bound[at:len(bound):len(bound)]
		pconn, bconn := splitAt(pl.Connect[i], i-1)
		pdisc, bdisc := splitAt(pl.Disconnect[i], i-1)
		c.BConn, c.BDisc = bconn, bdisc
		if len(pconn) > 1 || len(pconn) == 1 && len(pdisc) > 0 {
			c.Built, c.At = true, pconn[len(pconn)-1]
			if nd := len(pdisc); nd > 0 {
				c.PConn, c.PDisc, c.Last, c.LastDisc = pconn, pdisc[:nd-1], pdisc[nd-1], true
				c.At = max(c.At, c.Last)
			} else {
				c.PConn, c.Last = pconn[:len(pconn)-1], c.At
			}
			for a := 1; a < i; a++ {
				if slices.Equal(pl.Connect[a], pconn) && slices.Equal(pl.Disconnect[a], pdisc) {
					c.Raw |= 1 << a
				}
			}
		}
	}
}

// splitAt partitions an ascending level list of depth d+1 into the levels
// below d and the entry for d itself, its last if listed.
func splitAt(list []int, d int) (below, at []int) {
	if n := len(list); n > 0 && list[n-1] == d {
		return list[:n-1], list[n-1:]
	}
	return list, nil
}

// settleChecks decides from the pattern what it can of the corrections a
// count-only level at depth i makes for the vertices bound at depths
// outside Connect[i], which its kernels count when they qualify: adjacent
// to every vertex bound at the Connect depths and to none at the other
// Disconnect depths. The plan's lists name every pattern edge and anti-edge
// between two levels, so a depth the pattern makes adjacent to every
// Connect level and anti-adjacent to every other Disconnect level always
// qualifies, one anti-adjacent to a Connect level or adjacent to a
// Disconnect level never does, nor does one whose concrete label is not
// the level's, and the rest (non-edges of an edge-induced pattern) are
// left to probe. It appends the first kind to dst, then the last, and
// returns how many of the first; a vertex-induced plan leaves nothing to
// probe.
func (pl *Plan) settleChecks(dst []int, i int) (_ []int, nAlways int) {
	var probe [pattern.MaxVertices]int
	n := 0
	for a := 0; a < i; a++ {
		if slices.Contains(pl.Connect[i], a) {
			continue
		}
		switch pl.qualifies(a, i) {
		case always:
			dst = append(dst, a)
			nAlways++
		case maybe:
			probe[n] = a
			n++
		}
	}
	return append(dst, probe[:n]...), nAlways
}

// verdict is what the pattern says about a relation between bound
// vertices in every match: it holds always, never, or maybe.
type verdict uint8

const (
	maybe verdict = iota
	always
	never
)

// qualifies is settleChecks' verdict on bound depth a at level i. A data
// vertex carries one label, so where both depths carry concrete labels
// that differ, a's vertex is never in i's labeled candidate set.
func (pl *Plan) qualifies(a, i int) verdict {
	la, li := pl.Pattern.Label(pl.Order[a]), pl.Pattern.Label(pl.Order[i])
	if la != pattern.Unlabeled && li != pattern.Unlabeled && la != li {
		return never
	}
	v := always
	for _, c := range pl.Connect[i] {
		switch pl.adjacent(a, c) {
		case never:
			return never
		case maybe:
			v = maybe
		}
	}
	for _, d := range pl.Disconnect[i] {
		if d == a {
			continue
		}
		switch pl.adjacent(a, d) {
		case always:
			return never
		case maybe:
			v = maybe
		}
	}
	return v
}

// adjacent is the pattern's verdict on whether the vertices bound at
// depths a and b are adjacent: the later level lists the earlier one in
// Connect (always), in Disconnect (never) or in neither (maybe).
func (pl *Plan) adjacent(a, b int) verdict {
	lo, hi := min(a, b), max(a, b)
	switch {
	case slices.Contains(pl.Connect[hi], lo):
		return always
	case slices.Contains(pl.Disconnect[hi], lo):
		return never
	}
	return maybe
}
