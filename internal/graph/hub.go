package graph

import (
	"sync"
	"sync/atomic"
)

// Hub-bitset index: bitmap adjacency rows for high-degree ("hub")
// vertices, giving matching engines O(1) membership probes and word-
// parallel intersection counts against hub neighborhoods instead of
// merging through their huge sorted adjacency lists.
//
// The index trades memory for speed: one row costs ceil(n/64) words
// (n/8 bytes) regardless of degree, versus 4·deg bytes for the CSR row it
// shadows. It therefore only pays for vertices whose degree is a decent
// fraction of n — exactly the hubs that dominate set-operation time on
// skewed graphs. The threshold (see DefaultHubThreshold) caps the whole
// index at roughly the size of the CSR adjacency it accelerates.
//
// The index is part of what a plain *Graph is: the first HubBits call
// builds it, as the first LabelRow call builds the label rows and
// Summarize memoizes the summary, and a graph with no vertex at or above
// the threshold holds an empty index that allocates nothing. The decoding
// tiers carry none (their HubBits returns nil) and engines fall back to
// the merge/gallop kernels there.

// hubIndex is the built index: a dense slab of bitmap rows plus a
// per-vertex row table (-1 = not a hub). Both are nil when no vertex
// qualifies.
type hubIndex struct {
	rowWords int
	rowOf    []int32
	slab     []uint64
}

// hubMemo is the once-per-graph slot of the index.
type hubMemo struct {
	once sync.Once
	ix   atomic.Pointer[hubIndex] // non-nil once built: what HubIndexBytes asks
}

// DefaultHubThreshold returns the degree cutoff of the hub-bitset index:
// max(64, n/32). A bitmap row costs n/8 bytes versus 4·deg bytes of CSR, so
// at deg = n/32 the row costs exactly 1x the CSR it shadows; qualifying
// vertices can therefore at most double adjacency memory in aggregate, and
// on real skewed graphs the handful of hubs above the cutoff cost far less.
func DefaultHubThreshold(n int) int {
	t := n / 32
	if t < 64 {
		t = 64
	}
	return t
}

// buildHubIndex indexes every vertex of degree >= DefaultHubThreshold.
// When none qualifies the index is empty — no row table, no slab — so
// sparse graphs and the induced shards of a sharded run pay one degree scan
// and nothing else.
func buildHubIndex(g *Graph) *hubIndex {
	n := g.NumVertices()
	minDegree := DefaultHubThreshold(n)
	if g.MaxDegree() < minDegree {
		return &hubIndex{}
	}
	h := &hubIndex{rowWords: (n + 63) / 64, rowOf: make([]int32, n)}
	hubs := 0
	for v := 0; v < n; v++ {
		if g.Degree(uint32(v)) >= minDegree {
			h.rowOf[v] = int32(hubs)
			hubs++
		} else {
			h.rowOf[v] = -1
		}
	}
	h.slab = make([]uint64, hubs*h.rowWords)
	for v := 0; v < n; v++ {
		r := h.rowOf[v]
		if r < 0 {
			continue
		}
		row := h.slab[int(r)*h.rowWords : (int(r)+1)*h.rowWords]
		for _, u := range g.Neighbors(uint32(v)) {
			row[u>>6] |= 1 << (u & 63)
		}
	}
	return h
}

// HubBits returns the bitmap adjacency row of v, or nil when v's degree is
// below DefaultHubThreshold. The row has ceil(n/64) words; bit u of the row
// is set iff {v,u} is an edge. The returned slice aliases index storage and
// must not be modified. The first call builds the index; concurrent first
// calls wait for the one build.
func (g *Graph) HubBits(v uint32) []uint64 {
	h := g.hub.ix.Load()
	if h == nil {
		g.hub.once.Do(func() { g.hub.ix.Store(buildHubIndex(g)) })
		h = g.hub.ix.Load()
	}
	if h.rowOf == nil {
		return nil
	}
	r := h.rowOf[v]
	if r < 0 {
		return nil
	}
	off := int(r) * h.rowWords
	return h.slab[off : off+h.rowWords]
}

// HubIndexBytes returns the memory the hub-bitset index holds, 0 while it
// has not been built (no HubBits call yet) or when no vertex qualified.
func (g *Graph) HubIndexBytes() int {
	if h := g.hub.ix.Load(); h != nil {
		return 4*len(h.rowOf) + 8*len(h.slab)
	}
	return 0
}

// Labels exposes the per-vertex label slice (nil for unlabeled graphs) so
// kernels can fuse label filters into set operations. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Labels() []int32 { return g.labels }
