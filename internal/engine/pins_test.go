package engine

import (
	"slices"
	"testing"

	"morphing/internal/dataset"
	"morphing/internal/graph"
)

var probeSink bool

// A pin fetches its row once per binding: repeated use, and re-binding a
// depth to the vertex it already holds, decode nothing; binding another
// vertex decodes on the next use only; pinned-row probes are reported to
// the view as probe hits on Release.
func TestPinsDecodeOncePerBinding(t *testing.T) {
	g, err := dataset.ErdosRenyi(120, 14, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	c, err := graph.Compress(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	sink := &graph.DecodeCounters{}
	var pins rowPins
	match := []uint32{5, 9, 30}
	view := graph.WithDecodeAttribution(c, sink).View()
	counted := &rowCounter{Adjacency: view}
	rows := func() int { // rows fetched since the last call
		n := counted.rows
		counted.rows = 0
		return n
	}
	pins.reset(counted, len(match))
	pins.match = match

	for rep := 0; rep < 3; rep++ {
		for j, v := range match {
			if got := pins.row(j); !slices.Equal(got, g.Neighbors(v)) {
				t.Fatalf("depth %d: row %v, want %v", j, got, g.Neighbors(v))
			}
		}
	}
	if n := rows(); n != 3 {
		t.Fatalf("3 bindings used 3 times each decoded %d rows, want 3", n)
	}
	held := pins.row(0)
	match[1] = 9 // re-bound to the vertex it holds
	match[2] = 31
	pins.row(1)
	if n := rows(); n != 0 {
		t.Fatalf("re-binding a depth to its own vertex decoded %d rows", n)
	}
	if got := pins.row(2); !slices.Equal(got, g.Neighbors(31)) {
		t.Fatalf("re-bound depth 2: row %v, want %v", got, g.Neighbors(31))
	}
	if n := rows(); n != 1 {
		t.Fatalf("one new binding decoded %d rows, want 1", n)
	}
	if !slices.Equal(held, g.Neighbors(5)) {
		t.Fatal("depth 0's row changed while depth 0 stayed bound")
	}

	for a := range match {
		for b := range match {
			if a != b && pins.adjacent(a, b) != g.HasEdge(match[a], match[b]) {
				t.Fatalf("adjacent(%d,%d) disagrees with HasEdge(%d,%d)", a, b, match[a], match[b])
			}
		}
	}
	pins.release()
	sink.Drain()
	if st := sink.Stats(); st.Rows != 4 || st.ProbeHits != 6 || st.ProbeMisses != 0 {
		t.Fatalf("after 6 pinned-row probes: %+v, want 4 rows, 6 hits, 0 misses", st)
	}
}

// rowCounter counts Row calls on the way to the wrapped view.
type rowCounter struct {
	graph.Adjacency
	rows int
}

func (r *rowCounter) Row(v uint32, buf []uint32) (row, next []uint32) {
	r.rows++
	return r.Adjacency.Row(v, buf)
}

func (r *rowCounter) CountProbeHits(n uint64) {
	r.Adjacency.(interface{ CountProbeHits(uint64) }).CountProbeHits(n)
}

// BenchmarkBoundProbe compares the two ways a count-only leaf can test
// adjacency between two bound vertices on the compressed tier: a binary
// search in a row the executor has pinned, and the view's HasEdge (block
// index search plus, on a probe-cache miss, one block decode). Diagnostic
// only: the end-to-end effect is the repo benchmark's sc-mmap row.
func BenchmarkBoundProbe(b *testing.B) {
	g, err := dataset.ErdosRenyi(4000, 120, 0, 3)
	if err != nil {
		b.Fatal(err)
	}
	c, err := graph.Compress(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	// Probe pairs as a leaf sees them: one fixed bound vertex against a
	// run of others.
	const hub = 17
	others := g.Neighbors(hub)
	n := uint32(g.NumVertices())
	b.Run("pinned", func(b *testing.B) {
		var pins rowPins
		match := []uint32{hub, 0}
		pins.reset(c.View(), 2)
		pins.match = match
		pins.row(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			match[1] = (others[i%len(others)] + 1) % n
			probeSink = pins.adjacent(1, 0)
		}
	})
	b.Run("view", func(b *testing.B) {
		v := c.View()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			probeSink = v.HasEdge((others[i%len(others)]+1)%n, hub)
		}
	})
}
