// Package pattern implements the small query graphs ("patterns") used by
// graph mining applications: undirected graphs on a handful of vertices,
// optionally labeled, with either edge-induced or vertex-induced matching
// semantics.
//
// A vertex-induced pattern implicitly carries an anti-edge between every
// pair of vertices that is not connected by a regular edge: a data subgraph
// matches it only if the matched vertices have no extra edges among them.
// An edge-induced pattern carries no anti-edges. Cliques are both at once.
// This mirrors Section 2 of the Subgraph Morphing paper: the two induced
// forms of the same structure are called variants of each other.
package pattern

import (
	"fmt"
	"math/bits"
	"sort"
)

// MaxVertices bounds the size of a pattern. Mining systems only plan for
// small patterns (the paper evaluates up to 7 vertices); 12 keeps the
// adjacency representable as one uint16 bitmask per vertex while leaving
// headroom over the evaluation set.
const MaxVertices = 12

// Unlabeled marks a vertex with no label constraint.
const Unlabeled int32 = -1

// Induced selects the matching semantics of a pattern.
type Induced uint8

const (
	// EdgeInduced patterns match any subgraph containing their edges.
	EdgeInduced Induced = iota
	// VertexInduced patterns additionally forbid edges between pattern
	// vertices that are not connected in the pattern (anti-edges).
	VertexInduced
)

func (iv Induced) String() string {
	switch iv {
	case EdgeInduced:
		return "edge-induced"
	case VertexInduced:
		return "vertex-induced"
	default:
		return fmt.Sprintf("Induced(%d)", uint8(iv))
	}
}

// Pattern is an immutable small undirected graph with matching semantics.
// The zero value is not useful; construct patterns with New or the named
// constructors in this package.
//
// Anti-edges come in two forms. The common one is implicit: a
// vertex-induced pattern carries an anti-edge between every non-adjacent
// pair. The general one (Peregrine's anti-edge feature, §2 of the paper)
// is an explicit subset of non-adjacent pairs set with WithAntiEdges;
// such patterns sit between the two variants and are matched natively by
// anti-edge-capable engines but are outside the morphing algebra, which
// operates on the variant lattice.
type Pattern struct {
	n       int
	adj     [MaxVertices]uint16 // adj[i] bit j set iff edge {i,j}
	anti    [MaxVertices]uint16 // explicit anti-edges (explicitAnti only)
	labels  [MaxVertices]int32
	induced Induced
	edges   int
	// explicitAnti marks patterns whose anti-edges are the explicit
	// subset in anti rather than derived from the induced flag.
	explicitAnti bool
	antiCount    int
}

// New builds a pattern over n vertices from an edge list. Vertices are
// 0-based. Options set labels and induced semantics; by default the pattern
// is unlabeled and edge-induced.
func New(n int, edges [][2]int, opts ...Option) (*Pattern, error) {
	if n < 1 || n > MaxVertices {
		return nil, fmt.Errorf("pattern: vertex count %d outside [1,%d]", n, MaxVertices)
	}
	p := &Pattern{n: n}
	for i := 0; i < n; i++ {
		p.labels[i] = Unlabeled
	}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("pattern: edge {%d,%d} outside vertex range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("pattern: self loop on vertex %d", u)
		}
		if p.adj[u]&(1<<uint(v)) != 0 {
			return nil, fmt.Errorf("pattern: duplicate edge {%d,%d}", u, v)
		}
		p.adj[u] |= 1 << uint(v)
		p.adj[v] |= 1 << uint(u)
		p.edges++
	}
	for _, o := range opts {
		if err := o(p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// MustNew is New for statically known-good inputs; it panics on error.
//
// Panic policy: Must* constructors are the only sanctioned panic sites
// on the construction path, and they are reserved for literals whose
// validity is provable at the call site (test fixtures, canned pattern
// tables, fixed-shape seeds). Anything derived from runtime input —
// files, flags, user queries, extension loops — must go through New and
// propagate the error.
func MustNew(n int, edges [][2]int, opts ...Option) *Pattern {
	p, err := New(n, edges, opts...)
	if err != nil {
		panic(err)
	}
	return p
}

// Option configures a pattern at construction time.
type Option func(*Pattern) error

// WithLabels assigns one label per vertex. The slice length must equal the
// vertex count. Use Unlabeled for wildcard vertices.
func WithLabels(labels []int32) Option {
	return func(p *Pattern) error {
		if len(labels) != p.n {
			return fmt.Errorf("pattern: %d labels for %d vertices", len(labels), p.n)
		}
		copy(p.labels[:], labels)
		return nil
	}
}

// WithInduced sets the matching semantics. Incompatible with
// WithAntiEdges (explicit anti-edges define their own semantics).
func WithInduced(iv Induced) Option {
	return func(p *Pattern) error {
		if iv != EdgeInduced && iv != VertexInduced {
			return fmt.Errorf("pattern: invalid induced mode %d", iv)
		}
		if p.explicitAnti && iv == VertexInduced {
			return fmt.Errorf("pattern: explicit anti-edges conflict with vertex-induced semantics")
		}
		p.induced = iv
		return nil
	}
}

// WithAntiEdges declares an explicit set of anti-edges: non-adjacent
// vertex pairs that must also be non-adjacent in the data graph for a
// subgraph to match. Setting every non-adjacent pair is equivalent to
// (but distinct in representation from) the vertex-induced variant; use
// WithInduced for that case so the pattern participates in morphing.
func WithAntiEdges(pairs [][2]int) Option {
	return func(p *Pattern) error {
		if p.induced == VertexInduced {
			return fmt.Errorf("pattern: explicit anti-edges conflict with vertex-induced semantics")
		}
		for _, pr := range pairs {
			u, v := pr[0], pr[1]
			if u < 0 || u >= p.n || v < 0 || v >= p.n || u == v {
				return fmt.Errorf("pattern: invalid anti-edge {%d,%d}", u, v)
			}
			if p.adj[u]&(1<<uint(v)) != 0 {
				return fmt.Errorf("pattern: anti-edge {%d,%d} overlaps a regular edge", u, v)
			}
			if p.anti[u]&(1<<uint(v)) != 0 {
				return fmt.Errorf("pattern: duplicate anti-edge {%d,%d}", u, v)
			}
			p.anti[u] |= 1 << uint(v)
			p.anti[v] |= 1 << uint(u)
			p.antiCount++
		}
		p.explicitAnti = true
		return nil
	}
}

// N returns the number of vertices.
func (p *Pattern) N() int { return p.n }

// EdgeCount returns the number of regular edges.
func (p *Pattern) EdgeCount() int { return p.edges }

// Induced reports the matching semantics.
func (p *Pattern) Induced() Induced { return p.induced }

// HasEdge reports whether {u,v} is a regular edge.
func (p *Pattern) HasEdge(u, v int) bool {
	return u != v && p.adj[u]&(1<<uint(v)) != 0
}

// NeighborMask returns the adjacency bitmask of vertex u.
func (p *Pattern) NeighborMask(u int) uint16 { return p.adj[u] }

// Degree returns the number of regular edges incident to u.
func (p *Pattern) Degree(u int) int { return bits.OnesCount16(p.adj[u]) }

// Label returns the label of vertex u (Unlabeled if unconstrained).
func (p *Pattern) Label(u int) int32 { return p.labels[u] }

// Labeled reports whether any vertex carries a label constraint.
func (p *Pattern) Labeled() bool {
	for i := 0; i < p.n; i++ {
		if p.labels[i] != Unlabeled {
			return true
		}
	}
	return false
}

// Labels returns a copy of the per-vertex labels.
func (p *Pattern) Labels() []int32 {
	out := make([]int32, p.n)
	copy(out, p.labels[:p.n])
	return out
}

// Edges returns the regular edges with u < v, sorted lexicographically.
func (p *Pattern) Edges() [][2]int {
	out := make([][2]int, 0, p.edges)
	for u := 0; u < p.n; u++ {
		m := p.adj[u] >> uint(u+1) << uint(u+1)
		for m != 0 {
			v := bits.TrailingZeros16(m)
			m &= m - 1
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// AntiEdgePairs returns the pairs {u,v}, u < v, that act as anti-edges:
// the explicit set when one was declared, all non-adjacent pairs when the
// pattern is vertex-induced, nothing otherwise.
func (p *Pattern) AntiEdgePairs() [][2]int {
	if p.explicitAnti {
		var out [][2]int
		for u := 0; u < p.n; u++ {
			m := p.anti[u] >> uint(u+1) << uint(u+1)
			for m != 0 {
				v := bits.TrailingZeros16(m)
				m &= m - 1
				out = append(out, [2]int{u, v})
			}
		}
		return out
	}
	if p.induced != VertexInduced {
		return nil
	}
	return p.NonEdges()
}

// IsAntiEdge reports whether {u,v} acts as an anti-edge under the
// pattern's semantics.
func (p *Pattern) IsAntiEdge(u, v int) bool {
	if u == v {
		return false
	}
	if p.explicitAnti {
		return p.anti[u]&(1<<uint(v)) != 0
	}
	return p.induced == VertexInduced && p.adj[u]&(1<<uint(v)) == 0
}

// HasExplicitAntiEdges reports whether the pattern carries an explicit
// anti-edge set (as opposed to variant-derived anti-edges). Such patterns
// are matched natively but excluded from the morphing algebra.
func (p *Pattern) HasExplicitAntiEdges() bool { return p.explicitAnti }

// AntiEdgeCount returns the number of anti-edges in effect.
func (p *Pattern) AntiEdgeCount() int {
	if p.explicitAnti {
		return p.antiCount
	}
	if p.induced == VertexInduced {
		return p.n*(p.n-1)/2 - p.edges
	}
	return 0
}

// AntiMask returns the explicit anti-edge bitmask of vertex u (zero for
// variant-based patterns).
func (p *Pattern) AntiMask(u int) uint16 { return p.anti[u] }

// NonEdges returns the non-adjacent pairs {u,v}, u < v, regardless of
// semantics. For a vertex-induced pattern these are exactly its anti-edges.
func (p *Pattern) NonEdges() [][2]int {
	var out [][2]int
	for u := 0; u < p.n; u++ {
		for v := u + 1; v < p.n; v++ {
			if p.adj[u]&(1<<uint(v)) == 0 {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// IsClique reports whether every vertex pair is connected. Cliques are
// simultaneously edge- and vertex-induced (no anti-edges exist).
func (p *Pattern) IsClique() bool { return p.edges == p.n*(p.n-1)/2 }

// IsConnected reports whether the pattern is a single connected component.
// Mining systems only accept connected patterns.
func (p *Pattern) IsConnected() bool {
	if p.n == 1 {
		return true
	}
	seen := uint16(1)
	frontier := uint16(1)
	for frontier != 0 {
		next := uint16(0)
		for m := frontier; m != 0; {
			u := bits.TrailingZeros16(m)
			m &= m - 1
			next |= p.adj[u]
		}
		frontier = next &^ seen
		seen |= next
	}
	return bits.OnesCount16(seen) == p.n
}

// Variant returns a copy of the pattern with the given semantics.
// Structure and labels are shared by value; the receiver is unchanged.
// Any explicit anti-edge set is dropped — variants are the algebra's two
// canonical semantics.
func (p *Pattern) Variant(iv Induced) *Pattern {
	q := *p
	q.induced = iv
	q.explicitAnti = false
	q.antiCount = 0
	q.anti = [MaxVertices]uint16{}
	return &q
}

// AsEdgeInduced is shorthand for Variant(EdgeInduced).
func (p *Pattern) AsEdgeInduced() *Pattern { return p.Variant(EdgeInduced) }

// AsVertexInduced is shorthand for Variant(VertexInduced).
func (p *Pattern) AsVertexInduced() *Pattern { return p.Variant(VertexInduced) }

// WithExtraEdge returns a copy of p with the regular edge {u,v} added.
// It is the superpattern-extension primitive used when building the S-DAG.
func (p *Pattern) WithExtraEdge(u, v int) (*Pattern, error) {
	if u < 0 || u >= p.n || v < 0 || v >= p.n || u == v {
		return nil, fmt.Errorf("pattern: invalid extension edge {%d,%d}", u, v)
	}
	if p.HasEdge(u, v) {
		return nil, fmt.Errorf("pattern: extension edge {%d,%d} already present", u, v)
	}
	if p.explicitAnti && p.anti[u]&(1<<uint(v)) != 0 {
		return nil, fmt.Errorf("pattern: extension edge {%d,%d} conflicts with an anti-edge", u, v)
	}
	q := *p
	q.adj[u] |= 1 << uint(v)
	q.adj[v] |= 1 << uint(u)
	q.edges++
	return &q, nil
}

// WithPendant returns a copy of p with one more vertex, labeled label and
// adjacent to u alone: the other growth step of level-wise mining.
func (p *Pattern) WithPendant(u int, label int32) (*Pattern, error) {
	if u < 0 || u >= p.n || p.n == MaxVertices {
		return nil, fmt.Errorf("pattern: cannot attach a vertex to %d of %v", u, p)
	}
	q := *p
	q.adj[u] |= 1 << uint(p.n)
	q.adj[p.n] = 1 << uint(u)
	q.labels[p.n] = label
	q.n++
	q.edges++
	return &q, nil
}

// WithoutEdge returns a copy of p with the regular edge {u,v} removed: the
// subpattern step, WithExtraEdge's inverse. The result may be disconnected.
func (p *Pattern) WithoutEdge(u, v int) (*Pattern, error) {
	if u < 0 || u >= p.n || v < 0 || v >= p.n || !p.HasEdge(u, v) {
		return nil, fmt.Errorf("pattern: {%d,%d} is not an edge", u, v)
	}
	q := *p
	q.adj[u] &^= 1 << uint(v)
	q.adj[v] &^= 1 << uint(u)
	q.edges--
	return &q, nil
}

// WithoutVertex returns a copy of p with vertex v and its edges removed;
// vertices above v move down by one.
func (p *Pattern) WithoutVertex(v int) (*Pattern, error) {
	if v < 0 || v >= p.n || p.n == 1 || p.explicitAnti {
		return nil, fmt.Errorf("pattern: cannot remove vertex %d of %v", v, p)
	}
	keep := make([]int, 0, p.n-1)
	for u := 0; u < p.n; u++ {
		if u != v {
			keep = append(keep, u)
		}
	}
	q := &Pattern{n: p.n - 1, induced: p.induced, edges: p.edges - p.Degree(v)}
	for i, u := range keep {
		q.labels[i] = p.labels[u]
		for j, w := range keep {
			if p.HasEdge(u, w) {
				q.adj[i] |= 1 << uint(j)
			}
		}
	}
	return q, nil
}

// Permute returns a copy of p with vertices renumbered so that new vertex i
// is old vertex perm[i]. Labels move with their vertices. perm must be a
// permutation of [0,n).
func (p *Pattern) Permute(perm []int) (*Pattern, error) {
	if len(perm) != p.n {
		return nil, fmt.Errorf("pattern: permutation length %d for %d vertices", len(perm), p.n)
	}
	var seen uint16
	for _, v := range perm {
		if v < 0 || v >= p.n || seen&(1<<uint(v)) != 0 {
			return nil, fmt.Errorf("pattern: %v is not a permutation of [0,%d)", perm, p.n)
		}
		seen |= 1 << uint(v)
	}
	q := &Pattern{n: p.n, induced: p.induced, edges: p.edges,
		explicitAnti: p.explicitAnti, antiCount: p.antiCount}
	for i := 0; i < p.n; i++ {
		q.labels[i] = p.labels[perm[i]]
	}
	for i := 0; i < p.n; i++ {
		for j := i + 1; j < p.n; j++ {
			if p.HasEdge(perm[i], perm[j]) {
				q.adj[i] |= 1 << uint(j)
				q.adj[j] |= 1 << uint(i)
			}
			if p.explicitAnti && p.anti[perm[i]]&(1<<uint(perm[j])) != 0 {
				q.anti[i] |= 1 << uint(j)
				q.anti[j] |= 1 << uint(i)
			}
		}
	}
	return q, nil
}

// Equal reports exact structural equality: same vertex count, edges, labels
// and semantics under the identity vertex mapping. Use the canon package for
// isomorphism-aware comparison.
func (p *Pattern) Equal(q *Pattern) bool {
	if p.n != q.n || p.edges != q.edges || p.induced != q.induced ||
		p.explicitAnti != q.explicitAnti {
		return false
	}
	for i := 0; i < p.n; i++ {
		if p.adj[i] != q.adj[i] || p.labels[i] != q.labels[i] || p.anti[i] != q.anti[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (p *Pattern) Clone() *Pattern {
	q := *p
	return &q
}

// DegreeSequence returns the sorted (descending) degree sequence, a cheap
// isomorphism invariant used for pruning.
func (p *Pattern) DegreeSequence() []int {
	ds := make([]int, p.n)
	for i := range ds {
		ds[i] = p.Degree(i)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ds)))
	return ds
}
