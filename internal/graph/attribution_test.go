package graph

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// attrTestGraph builds a small compressed graph for attribution tests.
func attrTestGraph(t *testing.T) *CompressedGraph {
	t.Helper()
	g := randomGraph(t, 400, 12, 0, 7)
	c, err := Compress(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPerViewAttribution verifies that two scopes decoding through the
// same compressed graph see disjoint counters, each exactly the cold rows
// it decoded, once their workers have joined, and that a view's edge probe
// decodes and counts its block every time.
func TestPerViewAttribution(t *testing.T) {
	c := attrTestGraph(t)

	sinkA, sinkB := &DecodeCounters{}, &DecodeCounters{}
	ga := WithDecodeAttribution(c, sinkA)
	gb := WithDecodeAttribution(c, sinkB)

	var wg sync.WaitGroup
	work := func(a Adjacency, rows int) {
		defer wg.Done()
		v := a.View()
		n := uint32(a.NumVertices())
		for i := 0; i < rows; i++ {
			v.Neighbors(uint32(i) % n)
		}
	}
	wg.Add(2)
	go work(ga, 4000)
	go work(gb, 1000)
	wg.Wait()

	// Hot rows are lent, not decoded: only the cold ones count.
	cold := func(rows int) (n uint64) {
		for i := 0; i < rows; i++ {
			if _, hot := c.hotRows().row(uint32(i % c.NumVertices())); !hot {
				n++
			}
		}
		return n
	}
	wantA, wantB := cold(4000), cold(1000)
	if wantA == 4000 || wantA < 2000 {
		t.Fatalf("%d of 4000 rows cold: the test graph should have some hot rows and mostly cold ones", wantA)
	}
	// The join orders each view's counts before Stats reads them.
	sa, sb := sinkA.Stats(), sinkB.Stats()
	if sa.Rows != wantA {
		t.Fatalf("scope A rows = %d, want exactly %d", sa.Rows, wantA)
	}
	if sb.Rows != wantB {
		t.Fatalf("scope B rows = %d, want exactly %d", sb.Rows, wantB)
	}
	if sa.Elems == 0 || sb.Elems == 0 {
		t.Fatal("scopes recorded rows but no elements")
	}

	// A view probe between two cold rows decodes the one block that could
	// hold the edge, every time: one row, one block, one miss per probe.
	isCold := func(x uint32) bool { _, hot := c.hotRows().row(x); return !hot }
	var u, v uint32
	found := false
	for x := uint32(0); x < uint32(c.NumVertices()) && !found; x++ {
		for _, y := range c.Neighbors(x) {
			if isCold(x) && isCold(y) {
				u, v, found = x, y, true
				break
			}
		}
	}
	if !found {
		t.Fatal("no edge between two cold rows in the test graph")
	}
	small, other := u, v
	if c.Degree(v) < c.Degree(u) {
		small, other = v, u
	}
	bi, _ := c.findProbeBlock(small, other)
	block := len(c.decodeBlock(small, bi, nil))
	sinkC := &DecodeCounters{}
	pv := WithDecodeAttribution(c, sinkC).View()
	for probes := uint64(1); probes <= 2; probes++ {
		if !pv.HasEdge(u, v) {
			t.Fatalf("view denies edge {%d,%d}", u, v)
		}
		want := DecodeStats{Rows: probes, Blocks: probes, Elems: probes * uint64(block), ProbeMisses: probes}
		if got := sinkC.Stats(); got != want {
			t.Fatalf("after %d probes of {%d,%d}: %+v, want %+v", probes, u, v, got, want)
		}
	}
}

// TestAttributionPassThrough verifies the wrapper is inert where it
// should be: plain CSR (stable rows) and nil sinks wrap to the original
// adjacency, and wrapped graphs answer queries identically.
func TestAttributionPassThrough(t *testing.T) {
	g := randomGraph(t, 100, 6, 0, 3)
	if got := WithDecodeAttribution(g, &DecodeCounters{}); got != Adjacency(g) {
		t.Fatal("plain CSR should not be wrapped (no decode work to attribute)")
	}
	c := attrTestGraph(t)
	if got := WithDecodeAttribution(c, nil); got != Adjacency(c) {
		t.Fatal("nil sink should not wrap")
	}

	sink := &DecodeCounters{}
	w := WithDecodeAttribution(c, sink)
	wv, cv := w.View(), c.View()
	for v := uint32(0); v < 50; v++ {
		a, b := wv.Neighbors(v), cv.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d: wrapped row len %d != direct %d", v, len(a), len(b))
		}
		// HasEdge consistency through the view's probe path.
		for _, u := range a {
			if !wv.HasEdge(v, u) {
				t.Fatalf("wrapped view denies edge {%d,%d}", v, u)
			}
		}
		if wv.HasEdge(v, v) {
			t.Fatalf("self loop reported on %d", v)
		}
	}
}

// TestResidencySampling exercises mincore sampling against an
// mmap-backed graph (Linux) and the unsampled paths everywhere.
func TestResidencySampling(t *testing.T) {
	c := attrTestGraph(t)
	if rs := c.Residency(); rs.Sampled || rs.MappedBytes != 0 {
		t.Fatalf("heap-backed graph reported residency %+v, want unsampled zero", rs)
	}
	if !mmapSupported || runtime.GOOS != "linux" {
		t.Skip("mmap residency requires linux")
	}

	path := filepath.Join(t.TempDir(), "attr.mcsr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBinary2(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	h, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	mg := h.Compressed()
	if mg == nil {
		t.Fatalf("mmap open returned %T, want *CompressedGraph", h.Graph())
	}
	// Touch every row so the mapping is faulted in.
	view := mg.View()
	for v := uint32(0); v < uint32(mg.NumVertices()); v++ {
		view.Neighbors(v)
	}
	rs := mg.Residency()
	if !rs.Sampled {
		t.Fatal("mmap-backed graph on linux must sample residency")
	}
	if rs.MappedBytes == 0 || rs.ResidentBytes == 0 {
		t.Fatalf("residency %+v: mapped and resident must be non-zero after touching all rows", rs)
	}
	if rs.ResidentBytes > rs.MappedBytes {
		t.Fatalf("resident %d exceeds mapped %d", rs.ResidentBytes, rs.MappedBytes)
	}
}
