// Package core implements Subgraph Morphing, the paper's contribution:
// the structure-aware algebra over patterns (§4), the S-DAG data structure
// and greedy alternative-pattern selection (§5, Algorithm 1), and result
// transformation for both output modes (§6, Algorithms 2 and 3).
//
// The flow mirrors Fig. 5: queries enter pattern transformation (BuildSDAG
// + Select), the selected alternatives are mined by any engine, and the
// results come back through Convert (batched aggregation values: counts
// and MNI tables) or through StreamPlan's conversion maps (match streams,
// which subgraph enumeration converts as they arrive).
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"morphing/internal/canon"
	"morphing/internal/engine"
	"morphing/internal/pattern"
)

// Node is one vertex of the S-DAG: an isomorphism class of pattern
// structures (labels included, variants excluded). Parents are the
// superpatterns obtained by adding one edge; children the subpatterns
// obtained by removing one. All nodes in one weakly connected component
// share a vertex count and labeling multiset.
type Node struct {
	// ID is the canonical structure identifier (canon.StructureID).
	ID uint64
	// Pattern is the canonical edge-induced representative. Mining and
	// conversion may use a different "frame" object for this structure
	// (e.g. the original query); representatives anchor DAG identity.
	Pattern *pattern.Pattern
	// Parents holds the same-size superpatterns with exactly one more
	// edge; Children the converse. Both list what has been built so far
	// (see SDAG) and are complete once Nodes has been called.
	Parents  []*Node
	Children []*Node

	expanded bool     // Parents is complete
	up       []*Node  // UpSet, once requested
	tooBig   bool     // the up-set exceeds maxUpSet
	down     []uint64 // IDs of the connected one-edge-deleted subpatterns, once requested
}

// IsCliqueNode reports whether the node is the apex of its component.
func (n *Node) IsCliqueNode() bool { return n.Pattern.IsClique() }

// SDAG memoizes patterns and their superpattern relationships (§5.1): the
// query structures and, recursively, their same-size superpatterns up to
// the clique. It is built on demand: BuildSDAG interns the queries, a
// node's parents and up-set are generated when first asked for, so a query
// set Algorithm 1 declines to morph — every FSM level on record — builds
// no superpattern. Memoization prevents re-generating superpatterns
// reachable through different extension sequences. One goroutine at a time.
type SDAG struct {
	nodes   map[uint64]*Node
	queries []*Node                    // distinct query nodes, in query order
	byQuery map[*pattern.Pattern]*Node // the query objects' nodes: Node without a canonical lookup
}

// maxUpSet bounds the up-set of one node. The closure above a sparse
// pattern grows with the number of graphs on its vertices (an unlabeled
// path: 734 structures at 7 vertices, 10,030 at 8), each a canonical
// search; past the bound the node is not morphed. Every unlabeled pattern
// of up to 7 vertices (853 connected graphs) and every one of up to 6 fits.
const maxUpSet = 1024

// ErrUpSetTooLarge reports a structure with more than maxUpSet same-size
// superpatterns: too many to morph through.
var ErrUpSetTooLarge = fmt.Errorf("core: more than %d superpatterns", maxUpSet)

// BuildSDAG validates the queries and interns their structures; the
// superpatterns follow on request. Queries must be connected patterns;
// variants are ignored (the S-DAG is a structure graph).
func BuildSDAG(queries []*pattern.Pattern) (*SDAG, error) {
	d := &SDAG{nodes: make(map[uint64]*Node, len(queries)), byQuery: make(map[*pattern.Pattern]*Node, len(queries))}
	for i, q := range queries {
		if q == nil {
			return nil, fmt.Errorf("core: query %d is nil", i)
		}
		if !q.IsConnected() {
			return nil, fmt.Errorf("core: query %d (%v) is disconnected", i, q)
		}
		if q.HasExplicitAntiEdges() {
			return nil, fmt.Errorf("core: query %d (%v) has explicit anti-edges; the morphing algebra operates on the edge-/vertex-induced variant lattice — match such patterns directly", i, q)
		}
		n, fresh := d.intern(q)
		if fresh {
			d.queries = append(d.queries, n)
		}
		d.byQuery[q] = n
	}
	return d, nil
}

// intern returns the node for p's structure, creating it if absent.
func (d *SDAG) intern(p *pattern.Pattern) (*Node, bool) {
	rep, id := canon.Canonical(p)
	if n, ok := d.nodes[id]; ok {
		return n, false
	}
	if rep.Induced() != pattern.EdgeInduced {
		rep = rep.AsEdgeInduced()
	}
	n := &Node{ID: id, Pattern: rep}
	d.nodes[id] = n
	return n, true
}

// parents returns n's one-edge superpatterns, generating them on the first
// request; ctx is polled once per generating call.
func (d *SDAG) parents(ctx context.Context, n *Node) ([]*Node, error) {
	if n.expanded {
		return n.Parents, nil
	}
	if err := engine.CtxErr(ctx); err != nil {
		return nil, err
	}
	for _, ne := range n.Pattern.NonEdges() {
		super, err := n.Pattern.WithExtraEdge(ne[0], ne[1])
		if err != nil {
			return nil, fmt.Errorf("core: extending %v: %v", n.Pattern, err)
		}
		parent, _ := d.intern(super)
		if !slices.Contains(n.Parents, parent) {
			n.Parents = append(n.Parents, parent)
			parent.Children = append(parent.Children, n)
		}
	}
	n.expanded = true
	return n.Parents, nil
}

// childrenOf returns the nodes of d that are par with one edge removed,
// whether or not their own parents have been generated yet.
func (d *SDAG) childrenOf(par *Node) []*Node {
	if par.down == nil {
		par.down = []uint64{}
		for _, e := range par.Pattern.Edges() {
			if sub, err := par.Pattern.WithoutEdge(e[0], e[1]); err == nil && sub.IsConnected() {
				if id := canon.StructureID(sub); !slices.Contains(par.down, id) {
					par.down = append(par.down, id)
				}
			}
		}
	}
	out := make([]*Node, 0, len(par.down))
	for _, id := range par.down {
		if c := d.nodes[id]; c != nil {
			out = append(out, c)
		}
	}
	return out
}

// Node returns the S-DAG node for p's structure, or nil if the structure
// is not in the DAG as built so far.
func (d *SDAG) Node(p *pattern.Pattern) *Node {
	if n := d.byQuery[p]; n != nil {
		return n
	}
	return d.nodes[canon.StructureID(p)]
}

// Materialized returns the number of structures built so far: the
// queries plus whatever superpatterns selection or conversion asked for.
func (d *SDAG) Materialized() int { return len(d.nodes) }

// Len returns the number of structures in the DAG, building all of it.
func (d *SDAG) Len() int { return len(d.Nodes()) }

// Nodes builds the whole DAG — every query's up-set, as far as maxUpSet
// lets each go — and returns its nodes sorted by edge count then ID
// (deterministic).
func (d *SDAG) Nodes() []*Node {
	for _, q := range d.queries {
		// An up-set over the bound stays partly built.
		_, _ = d.UpSet(q)
	}
	out := make([]*Node, 0, len(d.nodes))
	for _, n := range d.nodes {
		out = append(out, n)
	}
	sortNodes(out)
	return out
}

// UpSet returns the superpattern closure of n including n itself, sorted
// by edge count descending (clique first, n last) — the natural order for
// the subtractive conversion direction. The slice is memoized and shared:
// treat it as read-only. A closure of more than maxUpSet structures is
// ErrUpSetTooLarge.
func (d *SDAG) UpSet(n *Node) ([]*Node, error) { return d.upSet(context.Background(), n) }

// upSet is UpSet generating under ctx: a cancelled or expired context ends
// it with the typed engine error.
func (d *SDAG) upSet(ctx context.Context, n *Node) ([]*Node, error) {
	if n.up != nil {
		return n.up, nil
	}
	if n.tooBig {
		return nil, ErrUpSetTooLarge
	}
	seen := map[uint64]bool{n.ID: true}
	out := []*Node{n}
	for i := 0; i < len(out); i++ {
		ps, err := d.parents(ctx, out[i])
		if err != nil {
			return nil, err
		}
		for _, p := range ps {
			if seen[p.ID] {
				continue
			}
			if len(out) == maxUpSet {
				n.tooBig = true
				return nil, ErrUpSetTooLarge
			}
			seen[p.ID] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pattern.EdgeCount() != out[j].Pattern.EdgeCount() {
			return out[i].Pattern.EdgeCount() > out[j].Pattern.EdgeCount()
		}
		return out[i].ID < out[j].ID
	})
	n.up = out
	return out, nil
}

// StrictUpSet is UpSet without n itself.
func (d *SDAG) StrictUpSet(n *Node) ([]*Node, error) {
	up, err := d.UpSet(n)
	if err != nil {
		return nil, err
	}
	return up[:len(up)-1], nil
}

// nodeLess is the S-DAG's node order: by edge count, then ID.
func nodeLess(a, b *Node) bool {
	if a.Pattern.EdgeCount() != b.Pattern.EdgeCount() {
		return a.Pattern.EdgeCount() < b.Pattern.EdgeCount()
	}
	return a.ID < b.ID
}

func sortNodes(ns []*Node) {
	sort.Slice(ns, func(i, j int) bool { return nodeLess(ns[i], ns[j]) })
}
