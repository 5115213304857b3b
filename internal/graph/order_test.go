package graph

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestSortByDegree(t *testing.T) {
	// Star with center 0: the hub must end up with the largest ID.
	g := MustFromEdges(5, [][2]uint32{{0, 1}, {0, 2}, {0, 3}, {0, 4}}, []int32{9, 1, 1, 1, 1})
	sorted, remap := SortByDegree(g)
	if sorted.NumVertices() != 5 || sorted.NumEdges() != 4 {
		t.Fatalf("shape changed: %d vertices, %d edges", sorted.NumVertices(), sorted.NumEdges())
	}
	hub := remap[0]
	if hub != 4 {
		t.Fatalf("hub relabeled to %d, want 4 (largest ID)", hub)
	}
	if sorted.Degree(hub) != 4 {
		t.Fatalf("hub degree %d after relabeling", sorted.Degree(hub))
	}
	if sorted.Label(hub) != 9 {
		t.Fatalf("hub label %d, want 9", sorted.Label(hub))
	}
	// Degrees must be non-decreasing in the new numbering.
	for v := 1; v < sorted.NumVertices(); v++ {
		if sorted.Degree(uint32(v-1)) > sorted.Degree(uint32(v)) {
			t.Fatalf("degrees not ascending at %d", v)
		}
	}
	// Adjacency preserved under the mapping.
	for old := uint32(0); old < 5; old++ {
		for _, u := range g.Neighbors(old) {
			if !sorted.HasEdge(remap[old], remap[u]) {
				t.Fatalf("edge {%d,%d} lost", old, u)
			}
		}
	}
}

// plainBytes serializes g in the binary format, as bytes for buildV2.
func plainBytes(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteBinary2(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The corner fixtures the random round trips of TestV2RoundTrip do not
// reach: negative labels, an isolated vertex, an edgeless graph.
func TestBinaryRoundTrip(t *testing.T) {
	for _, g := range []*Graph{
		MustFromEdges(4, [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}, nil),
		MustFromEdges(3, [][2]uint32{{0, 1}}, []int32{5, -1, 9}),
		MustFromEdges(2, nil, nil), // edgeless
	} {
		h, err := buildV2(plainBytes(t, g))
		if err != nil {
			t.Fatal(err)
		}
		sameAdjacency(t, g, h)
	}
}

// A damaged plain-tier file is an error (TestOpenRejectsCorrupt damages a
// compressed one).
func TestBinaryRejectsCorruption(t *testing.T) {
	good := plainBytes(t, MustFromEdges(4, [][2]uint32{{0, 1}, {1, 2}}, nil))
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"bad version", func(b []byte) []byte { b[4] = 99; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-6] }},
		{"absurd vertex count", func(b []byte) []byte {
			for i := 12; i < 20; i++ {
				b[i] = 0xFF
			}
			return b
		}},
	}
	for _, tc := range cases {
		if _, err := buildV2(tc.mutate(bytes.Clone(good))); err == nil {
			t.Errorf("%s: corrupt input accepted", tc.name)
		}
	}
}

// Opening validates the index sections only; the O(E) check Open runs
// under Verify must catch a neighbor smashed to an out-of-range vertex.
func TestBinaryValidatesStructure(t *testing.T) {
	b := plainBytes(t, MustFromEdges(3, [][2]uint32{{0, 1}, {1, 2}}, nil))
	adjStart := -1
	for e := b[v2HeaderSize:]; adjStart < 0; e = e[v2SectionSize:] {
		if binary.LittleEndian.Uint32(e) == secAdj {
			adjStart = int(binary.LittleEndian.Uint64(e[8:]))
		}
	}
	b[adjStart], b[adjStart+1] = 0xEE, 0xEE
	h, err := buildV2(b)
	if err != nil {
		return // rejected even earlier
	}
	if h.(*Graph).VerifySorted() == nil {
		t.Fatal("out-of-range neighbor accepted")
	}
}
