// Package graph implements the data-graph substrate shared by every
// matching engine: an immutable undirected graph in compressed sparse row
// (CSR) form with sorted adjacency lists, optional vertex labels, an
// edge-list codec, a BFS-grown partitioner standing in for METIS (§7.4),
// and summary statistics feeding the cost model (§5.2).
package graph

import (
	"fmt"
	"slices"
)

// Graph is an immutable undirected simple graph in CSR form. Adjacency
// lists are sorted ascending, enabling merge-based set operations and
// binary-search edge probes. Vertex IDs are dense in [0, NumVertices).
type Graph struct {
	offsets []uint64
	adj     []uint32
	labels  []int32  // nil when the graph is unlabeled
	orig    []uint32 // renumbering permutation, orig[new] = old (nil if none)
	nEdges  uint64
	sum     summaryMemo
	lrows   labelRowsMemo // label-grouped rows, built on the first LabelRow or LabelGroups
	hub     hubMemo       // bitmap rows of the hubs, built on the first HubBits
	above   aboveMemo     // upper-row offsets, built on the first AboveRows
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() uint64 { return g.nEdges }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v uint32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v uint32) []uint32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u,v} is an edge, probing the smaller adjacency
// list by binary search.
func (g *Graph) HasEdge(u, v uint32) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	a := g.Neighbors(u)
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(a) && a[lo] == v
}

// VerifySorted checks every CSR invariant the set-operation kernels rely
// on: monotone offsets, strictly ascending adjacency rows (sorted, no
// duplicate edges), no self loops, and symmetric adjacency (u lists v iff
// v lists u). It is O(E log d) and meant for tests and debug assertions,
// not hot paths; a nil error means the structure is sound.
func (g *Graph) VerifySorted() error {
	n := g.NumVertices()
	if len(g.offsets) != n+1 {
		return fmt.Errorf("graph: %d offsets for %d vertices", len(g.offsets), n)
	}
	if g.offsets[n] != uint64(len(g.adj)) {
		return fmt.Errorf("graph: offsets end at %d, adjacency has %d entries", g.offsets[n], len(g.adj))
	}
	var dir uint64
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
		row := g.Neighbors(uint32(v))
		for i, u := range row {
			if int(u) >= n {
				return fmt.Errorf("graph: vertex %d lists out-of-range neighbor %d", v, u)
			}
			if u == uint32(v) {
				return fmt.Errorf("graph: self loop on vertex %d", v)
			}
			if i > 0 && row[i-1] >= u {
				return fmt.Errorf("graph: adjacency of %d not strictly ascending at index %d (%d, %d)",
					v, i, row[i-1], u)
			}
			if !g.HasEdge(u, uint32(v)) {
				return fmt.Errorf("graph: asymmetric edge: %d lists %d but not vice versa", v, u)
			}
		}
		dir += uint64(len(row))
	}
	if dir != 2*g.nEdges {
		return fmt.Errorf("graph: %d directed entries for %d undirected edges", dir, g.nEdges)
	}
	return nil
}

// Labeled reports whether the graph carries vertex labels.
func (g *Graph) Labeled() bool { return g.labels != nil }

// Label returns the label of v, or -1 for unlabeled graphs.
func (g *Graph) Label(v uint32) int32 {
	if g.labels == nil {
		return -1
	}
	return g.labels[v]
}

// NumLabels returns the number of distinct labels (0 when unlabeled).
func (g *Graph) NumLabels() int {
	if g.labels == nil {
		return 0
	}
	if ix := g.lrows.ix.Load(); ix != nil {
		return ix.labels
	}
	seen := map[int32]struct{}{}
	for _, l := range g.labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// MaxDegree returns the maximum vertex degree.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(uint32(v)); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the average vertex degree.
func (g *Graph) AvgDegree() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return 2 * float64(g.nEdges) / float64(g.NumVertices())
}

// Builder accumulates edges and labels, then produces an immutable Graph.
// Duplicate edges and self loops are rejected lazily at Build so bulk loads
// stay cheap.
type Builder struct {
	n      int
	edges  [][2]uint32
	labels []int32
}

// NewBuilder creates a builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u,v}.
func (b *Builder) AddEdge(u, v uint32) {
	b.edges = append(b.edges, [2]uint32{u, v})
}

// SetLabels assigns per-vertex labels; length must match the vertex count
// at Build time.
func (b *Builder) SetLabels(labels []int32) {
	b.labels = labels
}

// Build validates the accumulated input and produces the CSR graph.
// Self loops are rejected; duplicate edges are collapsed.
func (b *Builder) Build() (*Graph, error) {
	if b.n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", b.n)
	}
	if b.labels != nil && len(b.labels) != b.n {
		return nil, fmt.Errorf("graph: %d labels for %d vertices", len(b.labels), b.n)
	}
	deg := make([]uint64, b.n)
	for _, e := range b.edges {
		u, v := e[0], e[1]
		if int(u) >= b.n || int(v) >= b.n {
			return nil, fmt.Errorf("graph: edge {%d,%d} outside vertex range [0,%d)", u, v, b.n)
		}
		if u == v {
			return nil, fmt.Errorf("graph: self loop on vertex %d", u)
		}
		deg[u]++
		deg[v]++
	}
	offsets := make([]uint64, b.n+1)
	for v := 0; v < b.n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj := make([]uint32, offsets[b.n])
	fill := make([]uint64, b.n)
	for _, e := range b.edges {
		u, v := e[0], e[1]
		adj[offsets[u]+fill[u]] = v
		fill[u]++
		adj[offsets[v]+fill[v]] = u
		fill[v]++
	}
	g := &Graph{labels: b.labels}
	g.offsets, g.adj, g.nEdges = sortCompactCSR(b.n, offsets, adj)
	return g, nil
}

// sortCompactCSR sorts each row of a freshly filled CSR arena and
// collapses duplicate entries in place: slices.Sort on the row
// sub-slice (no per-vertex copy, no reflection-based comparator), then
// a compaction write cursor that reuses `offsets` as the final offset
// array. offsets[v+1] is read before offsets[v] is overwritten, and the
// write cursor never passes the read cursor, so reuse is safe. Peak
// memory stays at one adjacency arena regardless of |E|.
func sortCompactCSR(n int, offsets []uint64, adj []uint32) ([]uint64, []uint32, uint64) {
	w := uint64(0)
	prevEnd := uint64(0)
	for v := 0; v < n; v++ {
		lo, hi := prevEnd, offsets[v+1]
		prevEnd = hi
		row := adj[lo:hi]
		slices.Sort(row)
		offsets[v] = w
		var prev uint32
		first := true
		for _, x := range row {
			if first || x != prev {
				adj[w] = x
				w++
				prev = x
				first = false
			}
		}
	}
	offsets[n] = w
	return offsets, adj[:w], w / 2
}

// FromEdges is a convenience constructor from an edge slice.
func FromEdges(n int, edges [][2]uint32, labels []int32) (*Graph, error) {
	b := NewBuilder(n)
	b.edges = edges
	if labels != nil {
		b.SetLabels(labels)
	}
	return b.Build()
}

// MustFromEdges is FromEdges for statically known-good inputs; it
// panics on error. Like pattern.MustNew, it is reserved for literal
// fixtures whose validity is provable at the call site — graphs loaded
// or assembled from runtime data must use FromEdges/Builder and handle
// the error.
func MustFromEdges(n int, edges [][2]uint32, labels []int32) *Graph {
	g, err := FromEdges(n, edges, labels)
	if err != nil {
		panic(err)
	}
	return g
}

// Subgraph returns the subgraph induced by members (dropping every edge
// with an endpoint outside the set), with vertices renumbered densely in
// the order given. Labels are carried over.
func (g *Graph) Subgraph(members []uint32) (*Graph, error) {
	return SubgraphOf(g, members)
}

// SubgraphOf is Subgraph over any storage tier; the result is always a
// plain in-RAM graph. Rows are consumed one at a time through a private
// view and one reused buffer.
func SubgraphOf(a Adjacency, members []uint32) (*Graph, error) {
	g := a.View()
	remap := make(map[uint32]uint32, len(members))
	for i, v := range members {
		if int(v) >= g.NumVertices() {
			return nil, fmt.Errorf("graph: member %d outside vertex range", v)
		}
		if _, dup := remap[v]; dup {
			return nil, fmt.Errorf("graph: duplicate member %d", v)
		}
		remap[v] = uint32(i)
	}
	b := NewBuilder(len(members))
	var row, buf []uint32
	for _, v := range members {
		nv := remap[v]
		row, buf = g.Row(v, buf)
		for _, u := range row {
			if nu, ok := remap[u]; ok && nv < nu {
				b.AddEdge(nv, nu)
			}
		}
	}
	if g.Labeled() {
		labels := make([]int32, len(members))
		for i, v := range members {
			labels[i] = g.Label(v)
		}
		b.SetLabels(labels)
	}
	return b.Build()
}
