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
// it decoded.
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
	// Before draining, attribution may trail by one sub-512 batch per
	// view; after Drain it is exact.
	if rows := sinkA.Stats().Rows; rows+512 <= wantA || rows > wantA {
		t.Fatalf("scope A rows before drain = %d, want ~%d (residue < 512)", rows, wantA)
	}
	sinkA.Drain()
	sinkB.Drain()
	sa, sb := sinkA.Stats(), sinkB.Stats()
	if sa.Rows != wantA {
		t.Fatalf("scope A rows = %d, want exactly %d after Drain", sa.Rows, wantA)
	}
	if sb.Rows != wantB {
		t.Fatalf("scope B rows = %d, want exactly %d after Drain", sb.Rows, wantB)
	}
	if sa.Elems == 0 || sb.Elems == 0 {
		t.Fatal("scopes recorded rows but no elements")
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
		// HasEdge consistency through the cached probe path.
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

// TestProbeBlockCache verifies the one-entry probe cache: repeated
// probes into one row's block answer without re-decoding and are
// counted as hits.
func TestProbeBlockCache(t *testing.T) {
	c := attrTestGraph(t)
	sink := &DecodeCounters{}
	w := WithDecodeAttribution(c, sink).View().(*compressedView)

	// Probes decode the smaller-degree endpoint's row, so to exercise
	// the cache we probe from a minimum-degree vertex: every probe then
	// lands in that one vertex's (single-block) row.
	hub := uint32(0)
	for v := uint32(1); v < uint32(c.NumVertices()); v++ {
		d := c.Degree(v)
		if d >= 4 && (c.Degree(hub) < 4 || d < c.Degree(hub)) {
			hub = v
		}
	}
	if c.Degree(hub) < 4 {
		t.Fatal("no suitable probe vertex in test graph")
	}
	// Keep only cold neighbors whose degree is >= hub's: those probes stay
	// in hub's row (ties don't swap), so the cache never gets evicted by a
	// probe into some other row; a hot neighbor's row would answer them
	// without the cache.
	var row []uint32
	for _, u := range c.Neighbors(hub) {
		if _, hot := c.hotRows().row(u); !hot && c.Degree(u) >= c.Degree(hub) {
			row = append(row, u)
		}
	}
	if len(row) == 0 {
		t.Fatal("probe vertex has no same-or-higher-degree neighbors")
	}

	for rep := 0; rep < 200; rep++ {
		for _, u := range row {
			if !w.HasEdge(hub, u) {
				t.Fatalf("edge {%d,%d} denied", hub, u)
			}
		}
	}
	w.flush()
	st := sink.Stats()
	if st.ProbeHits == 0 {
		t.Fatal("no probe-cache hits over repeated probes of the same row")
	}
	if st.ProbeMisses == 0 {
		t.Fatal("no probe-cache misses recorded (first touch must decode)")
	}
	if st.ProbeHits <= st.ProbeMisses {
		t.Fatalf("hits=%d misses=%d: clustered probes should mostly hit", st.ProbeHits, st.ProbeMisses)
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
	h, err := Open(path, OpenOptions{Mode: OpenMmap})
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
