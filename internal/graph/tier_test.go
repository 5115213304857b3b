package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// randomGraph builds a seeded random graph with the Builder (the dataset
// package depends on graph, so tests here roll their own generator).
// Duplicate edge submissions are made deliberately so the in-place
// sort/compact path is always exercised.
func randomGraph(t testing.TB, n int, avgDeg float64, labels int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	edges := int(float64(n) * avgDeg / 2)
	for i := 0; i < edges; i++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if u == v {
			continue
		}
		b.AddEdge(u, v)
		if rng.Intn(4) == 0 { // duplicates must collapse
			b.AddEdge(v, u)
		}
	}
	if labels > 0 {
		ls := make([]int32, n)
		for i := range ls {
			ls[i] = int32(rng.Intn(labels))
		}
		b.SetLabels(ls)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifySorted(); err != nil {
		t.Fatalf("Builder.Build violated CSR invariants: %v", err)
	}
	return g
}

// sameAdjacency checks that two tiers expose the identical logical
// graph: dimensions, labels, and every row (both access forms), with
// interleaved HasEdge probes.
func sameAdjacency(t *testing.T, want, got Adjacency) {
	t.Helper()
	if want.NumVertices() != got.NumVertices() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("dimensions differ: %d/%d vs %d/%d",
			want.NumVertices(), want.NumEdges(), got.NumVertices(), got.NumEdges())
	}
	if want.MaxDegree() != got.MaxDegree() {
		t.Fatalf("max degree differs: %d vs %d", want.MaxDegree(), got.MaxDegree())
	}
	if want.Labeled() != got.Labeled() {
		t.Fatalf("labeledness differs")
	}
	wv, gv := want.View(), got.View()
	for v := 0; v < want.NumVertices(); v++ {
		u := uint32(v)
		wrow := append([]uint32(nil), wv.Neighbors(u)...)
		grow := gv.Neighbors(u)
		if len(wrow) > 0 {
			if !gv.HasEdge(u, wrow[0]) {
				t.Fatalf("vertex %d: HasEdge(%d) false for a neighbor", v, wrow[0])
			}
			if gv.HasEdge(u, u) {
				t.Fatalf("vertex %d: HasEdge self loop", v)
			}
		}
		if len(wrow) != len(grow) {
			t.Fatalf("vertex %d: degree %d vs %d", v, len(wrow), len(grow))
		}
		if row, _ := gv.Row(u, nil); !slices.Equal(row, grow) {
			t.Fatalf("vertex %d: Row %v, Neighbors %v", v, row, grow)
		}
		for i := range wrow {
			if wrow[i] != grow[i] {
				t.Fatalf("vertex %d: neighbor %d is %d, want %d", v, i, grow[i], wrow[i])
			}
		}
		if want.Labeled() && want.Label(u) != got.Label(u) {
			t.Fatalf("vertex %d: label %d vs %d", v, got.Label(u), want.Label(u))
		}
	}
}

func TestCompressRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		n      int
		deg    float64
		labels int
		block  int
	}{
		{1, 0, 0, 0},
		{2, 1, 0, 1},
		{50, 6, 0, 4},
		{50, 6, 3, 8},
		{300, 12, 0, 0}, // default block size: single-block rows
		{120, 40, 5, 8}, // multi-block rows
	} {
		t.Run(fmt.Sprintf("n%d_d%g_l%d_b%d", tc.n, tc.deg, tc.labels, tc.block), func(t *testing.T) {
			g := randomGraph(t, tc.n, tc.deg, tc.labels, int64(tc.n)*31+int64(tc.block))
			c, err := Compress(g, tc.block)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			sameAdjacency(t, g, c)
			fp := c.Footprint()
			if fp.StreamBytes == 0 && g.NumEdges() > 0 {
				t.Fatal("empty stream for non-empty graph")
			}
			if g.NumEdges() > 0 && fp.BytesPerEdge <= 0 {
				t.Fatalf("BytesPerEdge = %v", fp.BytesPerEdge)
			}
		})
	}
}

// TestCompressedRowLifetime pins the Adjacency row contract on the
// compressed tier, in both of its forms. A cold row is decoded into the
// caller's buffer and handed back in it; a hot row is lent — an alias of
// the graph's decoded copy, the caller's buffer handed back untouched.
// Either survives every other call on the same handle — Row into another
// buffer, Neighbors, HasEdge — and a decoded row is replaced only when
// its own buffer is passed back, regrown if the next row does not fit.
func TestCompressedRowLifetime(t *testing.T) {
	g := randomGraph(t, 80, 10, 0, 7)
	c, err := Compress(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	v := c.View()
	hot := c.hotRows()
	sameBuffer := func(x, y []uint32) bool {
		return len(x) == len(y) && cap(x) == cap(y) && (cap(x) == 0 || &x[:1][0] == &y[:1][0])
	}
	var bufA, bufB []uint32
	var lent, decoded int
	for u := 0; u+1 < 80; u++ {
		var a, b []uint32
		passed, before := bufA, slices.Clone(bufA)
		a, bufA = v.Row(uint32(u), bufA)
		snap := append([]uint32(nil), a...)
		b, bufB = v.Row(uint32(u+1), bufB)
		kept := v.Neighbors(uint32(u + 1))
		if len(b) > 0 {
			v.HasEdge(uint32(u+1), b[0])
		}
		if !slices.Equal(a, snap) || !slices.Equal(a, g.Neighbors(uint32(u))) {
			t.Fatalf("row %d clobbered by later calls on the handle: %v, want %v", u, a, snap)
		}
		if !slices.Equal(b, kept) || !slices.Equal(b, g.Neighbors(uint32(u+1))) {
			t.Fatalf("row %d: Row %v, Neighbors %v, plain %v", u+1, b, kept, g.Neighbors(uint32(u+1)))
		}
		if row, isHot := hot.row(uint32(u)); isHot {
			lent++
			if &a[0] != &row[0] || !sameBuffer(bufA, passed) || !slices.Equal(bufA, before) {
				t.Fatalf("hot row %d was not lent with the buffer handed back untouched", u)
			}
		} else if len(a) > 0 {
			decoded++
			if len(bufA) == 0 || &a[0] != &bufA[0] {
				t.Fatalf("row %d was not decoded into the buffer handed back", u)
			}
		}
	}
	if lent == 0 || decoded == 0 {
		t.Fatalf("%d rows lent, %d decoded: the graph must exercise both forms", lent, decoded)
	}
	// Plain CSR lends its storage and leaves the caller's buffer alone.
	scratch := []uint32{7, 7, 7}
	row, next := g.Row(3, scratch)
	if !slices.Equal(row, g.Neighbors(3)) || len(next) != 3 || next[0] != 7 {
		t.Fatalf("plain Row = %v, buffer %v", row, next)
	}
}

func TestV2RoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, labels := range []int{0, 4} {
		g := randomGraph(t, 200, 9, labels, 99+int64(labels))
		g = RenumberByDegree(g) // perm section rides along
		c, err := Compress(g, 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, tier := range []struct {
			name  string
			write func(io.Writer) error
		}{
			{"plain", g.WriteBinary2},
			{"compressed", c.WriteBinary2},
		} {
			// heap is the read a platform without memory maps takes, mmap
			// is Open where it must map, auto is Open on any platform.
			for _, mode := range []struct {
				name string
				open func(string, OpenOptions) (*Handle, error)
			}{{"heap", OpenHeap}, {"mmap", Open}, {"auto", Open}} {
				t.Run(fmt.Sprintf("l%d_%s_%s", labels, tier.name, mode.name), func(t *testing.T) {
					if mode.name == "mmap" && !mmapSupported {
						t.Skip("no mmap on this platform")
					}
					path := filepath.Join(dir, fmt.Sprintf("g_%d_%s_%s.mcsr", labels, tier.name, mode.name))
					f, err := os.Create(path)
					if err != nil {
						t.Fatal(err)
					}
					if err := tier.write(f); err != nil {
						t.Fatal(err)
					}
					if err := f.Close(); err != nil {
						t.Fatal(err)
					}
					h, err := mode.open(path, OpenOptions{Verify: true})
					if err != nil {
						t.Fatal(err)
					}
					defer h.Close()
					if mode.name == "mmap" && !h.Mapped() {
						t.Fatal("Open left the file unmapped where mmap is supported")
					}
					sameAdjacency(t, g, h.Graph())
					wantOrig := g.OrigIDs()
					var gotOrig []uint32
					if p := h.Plain(); p != nil {
						gotOrig = p.OrigIDs()
					} else {
						gotOrig = h.Compressed().OrigIDs()
					}
					if len(wantOrig) != len(gotOrig) {
						t.Fatalf("perm length %d vs %d", len(gotOrig), len(wantOrig))
					}
					for i := range wantOrig {
						if wantOrig[i] != gotOrig[i] {
							t.Fatalf("perm[%d] = %d, want %d", i, gotOrig[i], wantOrig[i])
						}
					}
				})
			}
		}
	}
}

// TestOpenVersion1NamesConvert: the flat version-1 dump has no reader any
// more; Open must say so with a typed error that names the way out, not
// "unsupported version 1".
func TestOpenVersion1NamesConvert(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.mcsr")
	head := binary.LittleEndian.AppendUint32([]byte(binaryMagic), binaryVersion1)
	if err := os.WriteFile(path, append(head, make([]byte, 64)...), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func(string, OpenOptions) (*Handle, error){"mapped": Open, "heap": OpenHeap} {
		_, err := open(path, OpenOptions{})
		var legacy *LegacyFormatError
		if !errors.As(err, &legacy) || legacy.Path != path || !strings.Contains(err.Error(), "morphcli convert") {
			t.Fatalf("%s: Open(version-1 file) = %v, want a *LegacyFormatError naming morphcli convert", name, err)
		}
	}
}

// TestVerifySeesBytesRewrittenAfterOpen pins the detector for a file
// overwritten in place after Open, which is outside the storage contract:
// the mapping is MAP_SHARED, so adjacency bytes rewritten through the file
// (same length, no truncation) show through the open handle, and Verify on
// that handle reports the damage, on a plain and on a compressed file.
func TestVerifySeesBytesRewrittenAfterOpen(t *testing.T) {
	g := randomGraph(t, 200, 9, 0, 7)
	c, err := Compress(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []struct {
		name   string
		write  func(io.Writer) error
		sec    uint32
		fill   byte // 0xff: out-of-range neighbors; 0x80: every varint runs on
		verify func(*Handle) error
	}{
		{"plain", g.WriteBinary2, secAdj, 0xff, func(h *Handle) error { return h.Plain().VerifySorted() }},
		{"compressed", c.WriteBinary2, secStream, 0x80, func(h *Handle) error { return h.Compressed().Verify() }},
	} {
		t.Run(tier.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tier.write(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), tier.name+".mcsr")
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			h, err := Open(path, OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			if !h.Mapped() {
				t.Skip("no mmap on this platform")
			}
			if err := tier.verify(h); err != nil {
				t.Fatalf("Verify before the rewrite: %v", err)
			}
			off, size := sectionSpan(buf.Bytes(), tier.sec)
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, err = f.WriteAt(bytes.Repeat([]byte{tier.fill}, int(size)), int64(off))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := tier.verify(h); err == nil {
				t.Fatal("Verify on the open handle missed adjacency bytes rewritten through the file")
			}
		})
	}
}

// TestHubRowsFollowTheTier: a plain file opened through Open is a *Graph
// like any other and serves bitmap rows for its hubs (heap-resident, also
// when the CSR is a mapping); the compressed file of the same graph serves
// none.
func TestHubRowsFollowTheTier(t *testing.T) {
	b := NewBuilder(200)
	for v := uint32(1); v < 200; v++ {
		b.AddEdge(0, v)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compress(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []struct {
		name  string
		write func(io.Writer) error
		hubs  bool
	}{{"plain", g.WriteBinary2, true}, {"compressed", c.WriteBinary2, false}} {
		path := filepath.Join(t.TempDir(), tier.name+".mcsr")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := tier.write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		h, err := Open(path, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []Adjacency{h.Graph(), h.Graph().View()} {
			if got := a.HubBits(0) != nil; got != tier.hubs {
				t.Errorf("%s: hub row of the center served = %v, want %v", tier.name, got, tier.hubs)
			}
			if a.HubBits(1) != nil {
				t.Errorf("%s: a leaf has a hub row", tier.name)
			}
		}
		if p := h.Plain(); tier.hubs && p.HubIndexBytes() == 0 {
			t.Errorf("%s: HubIndexBytes 0 after serving a row", tier.name)
		}
		h.Close()
	}
}

// TestOpenRejectsCorrupt feeds Open systematically damaged version-2
// files: every mutation must produce an error, never a panic or a
// silently wrong graph.
func TestOpenRejectsCorrupt(t *testing.T) {
	g := randomGraph(t, 100, 8, 3, 11)
	c, err := Compress(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteBinary2(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	dir := t.TempDir()

	mutations := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"future version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 99)
			return b
		}},
		{"truncated header", func(b []byte) []byte { return b[:20] }},
		{"truncated section table", func(b []byte) []byte { return b[:v2HeaderSize+8] }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-len(b)/3] }},
		{"absurd vertex count", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[12:], 1<<40)
			return b
		}},
		{"max degree over nv", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[28:], 1<<30)
			return b
		}},
		{"section offset past EOF", func(b []byte) []byte {
			// First section table entry's offset field.
			binary.LittleEndian.PutUint64(b[v2HeaderSize+8:], uint64(len(b))+1024)
			return b
		}},
		{"misaligned section", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[v2HeaderSize+8:], 3)
			return b
		}},
		{"duplicate section id", func(b []byte) []byte {
			// Overwrite the second entry's id with the first entry's.
			id := binary.LittleEndian.Uint32(b[v2HeaderSize:])
			binary.LittleEndian.PutUint32(b[v2HeaderSize+v2SectionSize:], id)
			return b
		}},
		{"degree sum mismatch", func(b []byte) []byte {
			// Halve the edge count: index validation must catch it.
			ne := binary.LittleEndian.Uint64(b[20:])
			binary.LittleEndian.PutUint64(b[20:], ne/2)
			return b
		}},
		{"empty file", func(b []byte) []byte { return nil }},
	}
	for i, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			mutated := m.mutate(append([]byte(nil), valid...))
			path := filepath.Join(dir, fmt.Sprintf("bad%d.mcsr", i))
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			for name, open := range map[string]func(string, OpenOptions) (*Handle, error){"mapped": Open, "heap": OpenHeap} {
				if h, err := open(path, OpenOptions{Verify: true}); err == nil {
					h.Close()
					t.Fatalf("%s open accepted corrupt file (%s)", name, m.name)
				}
			}
		})
	}

	// The unmutated bytes must still open — otherwise the mutations
	// above prove nothing.
	path := filepath.Join(dir, "good.mcsr")
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := Open(path, OpenOptions{Verify: true})
	if err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	h.Close()
}

func TestRenumberByDegree(t *testing.T) {
	g := randomGraph(t, 150, 7, 3, 42)
	r := RenumberByDegree(g)
	if err := r.VerifySorted(); err != nil {
		t.Fatalf("renumbered graph invalid: %v", err)
	}
	if r.NumVertices() != g.NumVertices() || r.NumEdges() != g.NumEdges() {
		t.Fatalf("dimensions changed: %d/%d vs %d/%d",
			r.NumVertices(), r.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := 0; v+1 < r.NumVertices(); v++ {
		if r.Degree(uint32(v)) > r.Degree(uint32(v+1)) {
			t.Fatalf("degrees not ascending at %d: %d > %d", v, r.Degree(uint32(v)), r.Degree(uint32(v+1)))
		}
	}
	orig := r.OrigIDs()
	if len(orig) != g.NumVertices() {
		t.Fatalf("perm length %d", len(orig))
	}
	seen := make([]bool, g.NumVertices())
	for _, o := range orig {
		if int(o) >= len(seen) || seen[o] {
			t.Fatalf("orig not a permutation at %d", o)
		}
		seen[o] = true
	}
	// Edges map back exactly, labels ride along.
	for v := 0; v < r.NumVertices(); v++ {
		if g.Labeled() && r.Label(uint32(v)) != g.Label(orig[v]) {
			t.Fatalf("label of new %d differs from original %d", v, orig[v])
		}
		for _, u := range r.Neighbors(uint32(v)) {
			if !g.HasEdge(orig[v], orig[u]) {
				t.Fatalf("edge %d-%d has no pre-image %d-%d", v, u, orig[v], orig[u])
			}
		}
	}
	// Renumbering twice composes the stored permutation back to original
	// IDs, not to intermediate ones.
	r2 := RenumberByDegree(r)
	orig2 := r2.OrigIDs()
	for v := 0; v < r2.NumVertices(); v++ {
		for _, u := range r2.Neighbors(uint32(v)) {
			if !g.HasEdge(orig2[v], orig2[u]) {
				t.Fatalf("composed perm broken: edge %d-%d has no pre-image", v, u)
			}
		}
	}
}

func TestLoadEdgeListFileMatchesReadEdgeList(t *testing.T) {
	for _, labels := range []int{0, 5} {
		g := randomGraph(t, 180, 6, labels, 17+int64(labels))
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "edges.txt")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		want, err := ReadEdgeList(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var calls []LoadProgress
		got, err := LoadEdgeListFile(path, func(p LoadProgress) { calls = append(calls, p) })
		if err != nil {
			t.Fatal(err)
		}
		sameAdjacency(t, want, got)
		if err := got.VerifySorted(); err != nil {
			t.Fatal(err)
		}
		// Two passes, each ending with a Done callback.
		var dones []int
		for _, p := range calls {
			if p.Done {
				dones = append(dones, p.Pass)
			}
		}
		if len(dones) != 2 || dones[0] != 1 || dones[1] != 2 {
			t.Fatalf("progress Done callbacks = %v, want [1 2]", dones)
		}
	}
}

func TestLoadEdgeListFileErrors(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ name, content string }{
		{"selfloop", "0 1\n2 2\n"},
		{"syntax", "0 1\nnope\n"},
		{"arity", "0 1 2\n"},
		{"badlabel", "v 0 x\n0 1\n"},
	} {
		path := filepath.Join(dir, tc.name+".txt")
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadEdgeListFile(path, nil); err == nil {
			t.Errorf("%s: accepted malformed input", tc.name)
		}
	}
	if _, err := LoadEdgeListFile(filepath.Join(dir, "missing.txt"), nil); err == nil {
		t.Error("accepted missing file")
	}
}
