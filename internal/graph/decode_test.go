package graph

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// referenceRun decodes like decodeRun, one binary.Uvarint at a time.
func referenceRun(b []byte, count, blockSize int) []uint32 {
	out := make([]uint32, 0, count)
	var cur uint32
	for len(out) < count {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		b = b[n:]
		if len(out)%blockSize == 0 {
			cur = 0
		}
		cur += uint32(x)
		out = append(out, cur)
	}
	return out
}

// TestViewFillsWholeCacheLines: sibling workers' views are allocated one
// after another and written on every row, so a view must not share a
// cache line with another object.
func TestViewFillsWholeCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(compressedView{}); size%64 != 0 {
		t.Errorf("compressedView is %d bytes, not a whole number of 64-byte lines", size)
	}
}

// TestDecodeRunMatchesUvarint checks the varint kernel against
// binary.Uvarint over streams mixing 1- to 5-byte encodings (and the
// occasional overlong one), at several block sizes, whole and cut short
// at every byte: a truncated stream must yield exactly the elements
// whose varints are complete, never a read out of bounds.
func TestDecodeRunMatchesUvarint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		count := 1 + rng.Intn(40)
		var b []byte
		for i := 0; i < count; i++ {
			width := 1 + rng.Intn(5) // encoded bytes
			lo, hi := uint64(0), uint64(1)<<(7*width)
			if width > 1 {
				lo = 1 << (7 * (width - 1))
			}
			if width == 5 {
				hi = 1 << 32
			}
			x := lo + uint64(rng.Int63n(int64(hi-lo)))
			if rng.Intn(50) == 0 {
				x = 1 << 40 // six bytes: wraps in uint32 on both sides alike
			}
			b = binary.AppendUvarint(b, x)
		}
		for _, blockSize := range []int{1, 2, 3, 8, 128} {
			for cut := len(b); cut >= 0; cut-- {
				want := referenceRun(b[:cut], count, blockSize)
				got := make([]uint32, count)
				n := decodeRun(b[:cut:cut], got, blockSize)
				if !slices.Equal(got[:n], want) {
					t.Fatalf("trial %d block %d cut %d/%d: got %v, want %v", trial, blockSize, cut, len(b), got[:n], want)
				}
			}
		}
	}
}

// TestTruncatedRowIsShortAndRejected corrupts one row's last varint so it
// runs off the end of the row's byte range: the row decodes short by that
// element through every access form, and Verify rejects the graph.
func TestTruncatedRowIsShortAndRejected(t *testing.T) {
	g := randomGraph(t, 60, 9, 0, 5)
	c, err := Compress(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	v := uint32(0)
	for c.Degree(v) < 6 {
		v++
	}
	c.stream[c.encOff[v+1]-1] |= 0x80
	want := g.Neighbors(v)[:c.Degree(v)-1]
	if got := c.Neighbors(v); !slices.Equal(got, want) {
		t.Fatalf("Neighbors on truncated row = %v, want %v", got, want)
	}
	if got, _ := c.View().Row(v, make([]uint32, 2)); !slices.Equal(got, want) {
		t.Fatalf("Row on truncated row = %v, want %v", got, want)
	}
	if err := c.Verify(); err == nil {
		t.Fatal("Verify accepted a truncated stream")
	}
}

// BenchmarkDecodeRow measures a view's Row per element: cold, the row
// decoder on short rows (one block, call overhead dominates) and hub rows
// (many blocks, the varint loop dominates); hot, the same hub row on a
// graph whose encoded stream is big enough to keep it decoded, where Row
// lends it. Diagnostic only: the end-to-end effect is the repo
// benchmark's sc-mmap row.
func BenchmarkDecodeRow(b *testing.B) {
	for _, tc := range []struct {
		name string
		deg  int
		hot  bool
	}{{"cold/short", 8, false}, {"cold/hub", 4096, false}, {"hot/hub", 4096, true}} {
		b.Run(tc.name, func(b *testing.B) {
			// A degree-renumbered power-law neighborhood: mostly small gaps.
			const n = 1 << 16
			rng := rand.New(rand.NewSource(int64(tc.deg)))
			bld := NewBuilder(n)
			for range tc.deg {
				bld.AddEdge(0, 1+uint32(rng.Intn(n-1)))
			}
			for v := uint32(1); tc.hot && v < n; v++ {
				// A low-degree background: a stream past the hot-row budget's index.
				for d := uint32(1); d <= 3; d++ {
					if w := 1 + (v+d-1)%(n-1); w != v {
						bld.AddEdge(v, w)
					}
				}
			}
			g, err := bld.Build()
			if err != nil {
				b.Fatal(err)
			}
			c, err := Compress(g, 0)
			if err != nil {
				b.Fatal(err)
			}
			if _, hot := c.hotRows().row(0); hot != tc.hot {
				b.Fatalf("row 0 hot = %v, want %v", hot, tc.hot)
			}
			v := c.View()
			var row, buf []uint32
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row, buf = v.Row(0, buf)
			}
			b.StopTimer()
			if len(row) != c.Degree(0) {
				b.Fatalf("decoded %d of %d elements", len(row), c.Degree(0))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(row)), "ns/elem")
		})
	}
}
