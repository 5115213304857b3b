package graph

import (
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
)

// Hot rows: the compressed tier's highest-degree rows, kept decoded.
//
// An executor fetches a vertex's row once per binding of that vertex (pins,
// DESIGN §14), and a vertex of degree d is bound about d times, so on a
// skewed graph decode work grows as Σ deg² and is dominated by the rows at
// the top of the degree sequence: on sc-mmap's graph the top 100 rows (7 %
// of the directed edges) cause 56 % of the decoded elements. Memory for a
// decoded row grows only as deg, so taking rows by descending degree is the
// right order in which to spend a byte budget — and the budget is the one
// the tier already pays: the decoded rows plus their index fit in the
// encoded stream's own byte count (see hotCut), which keeps the tier below
// plain CSR's footprint.
//
// Like the plain tier's hub bitmaps and label rows, the copy is part of
// what a *CompressedGraph is: the first View (or shared-object Row,
// Neighbors, HasEdge) builds it, every view and wrapper shares it, and Open
// stays O(index). A hot row is served the way plain CSR serves every row —
// an immutable alias, the caller's buffer handed back untouched — and
// decodes nothing, so it adds nothing to DecodeStats.

// hotRows is the built copy: one slab plus per-vertex offsets, v's row
// being slab[off[v]:off[v+1]] (empty for a cold vertex). off is nil when
// no vertex is hot. fault is set instead when the build read a mapping
// that faulted.
type hotRows struct {
	minDeg int // a vertex is hot iff its degree is >= minDeg
	off    []uint32
	slab   []uint32
	fault  error
}

// hotMemo is the once-per-graph slot of the hot rows.
type hotMemo struct {
	once sync.Once
	ix   atomic.Pointer[hotRows]
}

// maxHotBytes keeps slab offsets within uint32: a budget of 16 GiB holds
// fewer than 2^32 elements once the index is paid for.
const maxHotBytes = 4 << 32

// hotCut applies the rule: the hot set is {v : deg(v) >= minDeg} for the
// smallest minDeg such that 4 bytes per element of those rows, plus a
// 4-byte offset per vertex, fit in the encoded stream's byte count. A
// degree class is never split; when even the top class does not fit,
// nothing is hot (minDeg 0). bytes is what the hot rows hold, index
// included. A function of the degree sequence alone — one histogram pass,
// O(n + maxDeg), no sort — so it is valid before the build (Footprint).
func (c *CompressedGraph) hotCut() (minDeg int, bytes uint64) {
	budget := min(uint64(len(c.stream)), maxHotBytes)
	used := 4 * uint64(c.nv+1)
	if used > budget {
		return 0, 0
	}
	hist := make([]uint64, c.maxDeg+1)
	for _, d := range c.degs {
		hist[d]++
	}
	for d := c.maxDeg; d >= 1; d-- {
		if hist[d] == 0 {
			continue
		}
		cost := 4 * uint64(d) * hist[d]
		if used+cost > budget {
			break
		}
		used += cost
		minDeg = d
	}
	if minDeg == 0 {
		return 0, 0
	}
	return minDeg, used
}

// hotRows returns the graph's hot rows, building them on first use;
// concurrent first callers wait for the one build. A build that faulted
// on the mapping re-raises its typed fault (ErrMappingFault) on every
// call: the graph's file changed under it.
func (c *CompressedGraph) hotRows() *hotRows {
	h := c.hot.ix.Load()
	if h == nil {
		c.hot.once.Do(func() { c.hot.ix.Store(buildHotRows(c)) })
		h = c.hot.ix.Load()
	}
	if h.fault != nil {
		panic(h.fault)
	}
	return h
}

// buildHotRows decodes every hot row into one slab. It reads the mapping
// under debug.SetPanicOnFault and records a fault instead of dying of it;
// a malformed row decodes short, as decodeRun does everywhere.
func buildHotRows(c *CompressedGraph) (h *hotRows) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			err := MappingFault(r)
			if err == nil {
				panic(r)
			}
			h = &hotRows{fault: err}
		}
	}()
	minDeg, bytes := c.hotCut()
	if minDeg == 0 {
		return &hotRows{}
	}
	h = &hotRows{
		minDeg: minDeg,
		off:    make([]uint32, c.nv+1),
		slab:   make([]uint32, 0, (bytes-4*uint64(c.nv+1))/4),
	}
	for v := 0; v < c.nv; v++ {
		n := len(h.slab)
		h.off[v] = uint32(n)
		if d := int(c.degs[v]); d >= minDeg {
			h.slab = slices.Grow(h.slab, d) // a no-op unless the degrees changed under the build
			h.slab = h.slab[:n+decodeRun(c.stream[c.encOff[v]:c.encOff[v+1]], h.slab[n:n+d], c.blockSize)]
		}
	}
	h.off[c.nv] = uint32(len(h.slab))
	return h
}

// row returns v's hot row, or false when v is cold.
func (h *hotRows) row(v uint32) ([]uint32, bool) {
	if h.off == nil {
		return nil, false
	}
	lo, hi := h.off[v], h.off[v+1]
	return h.slab[lo:hi], lo < hi
}
