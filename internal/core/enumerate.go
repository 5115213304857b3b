package core

import (
	"fmt"
	"math/rand"

	"morphing/internal/pattern"
)

// AlternativeAssignment is one point in the space of alternative pattern
// sets explored by the Fig. 15e experiment: a variant chosen for every
// structure in the S-DAG. Because the space for a motif-counting query
// covers all structures of a size, any assignment is a valid alternative
// set (every up-set is covered), and the invertible counting algebra can
// convert from any mix.
type AlternativeAssignment struct {
	Choices []Choice
}

// EnumerateAssignments samples up to limit distinct variant assignments
// over the S-DAG's structures, always including the all-vertex-induced
// assignment (the original motif query set) and the all-edge-induced one.
// The sampling is deterministic in seed. It covers the whole DAG (Nodes),
// so every structure's up-set is inside it.
func EnumerateAssignments(d *SDAG, limit int, seed int64) []AlternativeAssignment {
	nodes := d.Nodes()
	n := len(nodes)
	if limit < 2 {
		limit = 2
	}
	variantsOf := func(bits uint64) AlternativeAssignment {
		var a AlternativeAssignment
		for i, node := range nodes {
			v := pattern.VertexInduced
			if node.Pattern.IsClique() || bits&(1<<uint(i%64)) != 0 && i < 64 {
				v = pattern.EdgeInduced
			}
			a.Choices = append(a.Choices, Choice{
				Node:    node,
				Variant: v,
				Pattern: node.Pattern.Variant(v),
			})
		}
		return a
	}
	seen := map[uint64]bool{}
	var out []AlternativeAssignment
	add := func(bits uint64) {
		mask := uint64(1)<<uint(minInt(n, 63)) - 1
		bits &= mask
		if seen[bits] {
			return
		}
		seen[bits] = true
		out = append(out, variantsOf(bits))
	}
	add(0)          // all vertex-induced: the query set itself
	add(^uint64(0)) // all edge-induced
	r := rand.New(rand.NewSource(seed))
	for len(out) < limit && len(seen) < (1<<uint(minInt(n, 20))) {
		add(r.Uint64())
	}
	return out
}

// ConvertAssignment converts mined counts for an assignment (one value
// per Choice, same order) into counts for the given vertex-induced query
// patterns. It is the Fig. 15e evaluation path: every assignment must
// produce identical query counts, only at different cost.
func ConvertAssignment(d *SDAG, a AlternativeAssignment, queries []*pattern.Pattern, counts []uint64) ([]uint64, error) {
	if len(counts) != len(a.Choices) {
		return nil, fmt.Errorf("core: %d counts for %d choices", len(counts), len(a.Choices))
	}
	byPair := map[pairKey]uint64{}
	for i, c := range a.Choices {
		byPair[pairKey{c.Node.ID, normVariant(c.Pattern)}] = counts[i]
	}
	// Vertex-induced count per structure, from the clique down.
	vCount := map[uint64]uint64{}
	var derive func(n *Node) (uint64, error)
	derive = func(n *Node) (uint64, error) {
		if v, ok := vCount[n.ID]; ok {
			return v, nil
		}
		if v, ok := byPair[pairKey{n.ID, pattern.VertexInduced}]; ok {
			vCount[n.ID] = v
			return v, nil
		}
		e, ok := byPair[pairKey{n.ID, pattern.EdgeInduced}]
		if !ok {
			return 0, fmt.Errorf("core: structure %v not covered by assignment", n.Pattern)
		}
		sum := uint64(0)
		supers, err := d.StrictUpSet(n)
		if err != nil {
			return 0, err
		}
		for _, s := range supers {
			sv, err := derive(s)
			if err != nil {
				return 0, err
			}
			if sum, err = addScaled(sum, uint64(CopyCoefficient(n.Pattern, s.Pattern)), sv); err != nil {
				return 0, err
			}
		}
		if sum > e {
			return 0, fmt.Errorf("core: inconsistent counts for %v: edge-induced %d < contained %d", n.Pattern, e, sum)
		}
		v := e - sum
		vCount[n.ID] = v
		return v, nil
	}
	out := make([]uint64, len(queries))
	for i, q := range queries {
		n := d.Node(q)
		if n == nil {
			return nil, fmt.Errorf("core: query %v missing from S-DAG", q)
		}
		if normVariant(q) == pattern.VertexInduced {
			v, err := derive(n)
			if err != nil {
				return nil, err
			}
			out[i] = v
			continue
		}
		sum := uint64(0)
		up, err := d.UpSet(n)
		if err != nil {
			return nil, err
		}
		for _, s := range up {
			sv, err := derive(s)
			if err != nil {
				return nil, err
			}
			if sum, err = addScaled(sum, uint64(CopyCoefficient(q, s.Pattern)), sv); err != nil {
				return nil, err
			}
		}
		out[i] = sum
	}
	return out, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
