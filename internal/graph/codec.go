package graph

import (
	"bufio"
	"fmt"
	"io"
)

// The edge-list text format, compatible with the common SNAP-style files
// the paper's datasets ship in, extended with an optional label directive:
//
//	# comment
//	v <vertex> <label>     (optional; declares a labeled vertex)
//	<u> <v>                (undirected edge)
//
// Vertex IDs may be sparse in the file; they are densified on load in
// first-appearance order.

// ReadEdgeList parses the text format above in one pass, holding the
// deduplicated edge list until the CSR is built (LoadEdgeListFile streams
// a file in two passes instead).
func ReadEdgeList(r io.Reader) (*Graph, error) {
	ids := map[uint64]uint32{}
	var labels []int32
	labeled := false
	intern := func(raw uint64) uint32 {
		if v, ok := ids[raw]; ok {
			return v
		}
		v := uint32(len(ids))
		ids[raw] = v
		labels = append(labels, -1)
		return v
	}
	var edges [][2]uint32
	seen := map[[2]uint32]bool{}
	err := scanEdgeLines(r, 1, nil,
		func(raw uint64, lab int32) error {
			labels[intern(raw)] = lab
			labeled = true
			return nil
		},
		func(u, v uint64) error {
			a, b := intern(u), intern(v)
			// SNAP-style files commonly list both orientations of an edge;
			// dedupe here so the builder sees each undirected edge once and
			// the CSR degrees match the file's logical edge set.
			k := [2]uint32{min(a, b), max(a, b)}
			if !seen[k] {
				seen[k] = true
				edges = append(edges, [2]uint32{a, b})
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	b := NewBuilder(len(ids))
	b.edges = edges
	if labeled {
		b.SetLabels(labels)
	}
	return b.Build()
}

// WriteEdgeList renders g in the text format accepted by ReadEdgeList.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	if g.Labeled() {
		for v := 0; v < g.NumVertices(); v++ {
			fmt.Fprintf(bw, "v %d %d\n", v, g.Label(uint32(v)))
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if uint32(v) < u {
				fmt.Fprintf(bw, "%d %d\n", v, u)
			}
		}
	}
	return bw.Flush()
}
