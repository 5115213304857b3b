package engine

import (
	"maps"
	"sync"

	"morphing/internal/plan"
	"morphing/internal/setops"
)

// The cases a collapsed leaf's count can meet, as RecordCollapsedShapes
// names them.
const (
	ShapeLowDep      = "low end depends on the parent"
	ShapeHighDep     = "high end depends on the parent"
	ShapeBothDep     = "both ends depend on the parent"
	ShapeNeitherDep  = "neither end depends on the parent"
	ShapeBoundCand   = "a candidate is a bound vertex"
	ShapeFixedInside = "a fixed vertex inside the window"
	ShapeGallopBase  = "a galloped hub base"
)

// RecordCollapsedShapes counts, per case, the collapsed-leaf counts the
// passes run until stop is called; seen returns the tally so far. Passes
// must not run while it is started or stopped.
func RecordCollapsedShapes() (seen func() map[string]int, stop func()) {
	var mu sync.Mutex
	tally := map[string]int{}
	collapsedSeen = func(ei *trieExecInfo, c, x, b, f []uint32) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case ei.loDep && ei.hiDep:
			tally[ShapeBothDep]++
		case ei.loDep:
			tally[ShapeLowDep]++
		case ei.hiDep:
			tally[ShapeHighDep]++
		default:
			tally[ShapeNeitherDep]++
		}
		if len(x) > 0 {
			tally[ShapeBoundCand]++
		}
		if len(f) > 0 {
			tally[ShapeFixedInside]++
		}
		if len(b) >= 64 && len(b) >= 8*len(c) { // setops' galloping threshold
			tally[ShapeGallopBase]++
		}
	}
	seen = func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(tally)
	}
	return seen, func() { collapsedSeen = nil }
}

// SeeMarkedLeaves hands every marked-leaf count — the leaf, its base and
// the row it probed, its window and the count — to see, from the worker
// that made it, until stop is called. Passes must not run while it is set
// or cleared.
func SeeMarkedLeaves(see func(worker int, leaf *plan.TrieNode, base, row []uint32, f setops.Filter, n uint64)) (stop func()) {
	markedSeen = see
	return func() { markedSeen = nil }
}

// SeeWindows hands every held-base count — the leaf, its base's generation
// key, the base and what the leaf's cursor left of it, the binding row and what the upper-row offset
// left of it, and the window's low end — to see, from the worker that made
// it, until stop is called. Passes must not run while it is set or cleared.
func SeeWindows(see func(worker int, leaf *plan.TrieNode, key uint64, base, held, row, cut []uint32, lo uint32)) (stop func()) {
	windowSeen = see
	return func() { windowSeen = nil }
}

// SeeLabelFans hands every fan member's set — the member, the vertex whose
// label directory the fan walked, the member's label and the slice the fan
// handed it (nil: the label is absent from the row) — to see, from the
// worker that ran it, until stop is called. Passes must not run while it is
// set or cleared.
func SeeLabelFans(see func(worker int, node *plan.TrieNode, v uint32, label int32, set []uint32)) (stop func()) {
	fanSeen = see
	return func() { fanSeen = nil }
}
