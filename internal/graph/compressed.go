package graph

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// Delta-varint block-compressed CSR: the out-of-core storage tier.
//
// Each vertex's sorted adjacency row is chopped into blocks of BlockSize
// elements. A block is self-contained: its first element as an absolute
// uvarint, then the successive gaps (always >= 1 on a strict-ascending
// row) as uvarints. Alongside the byte stream sit flat index arrays —
// per-vertex degrees and byte offsets, and a per-block (first element,
// relative byte offset) index — so a row decodes in O(row) and an edge
// probe decodes exactly one block after a binary search over block first
// elements. Every array is flat and fixed-width, which is what lets the
// v2 binary format mmap the whole structure and page it in on demand.
//
// On degree-renumbered power-law graphs the gaps between neighbors are
// small, so rows compress to roughly 1-2 bytes per directed edge versus
// the plain CSR's fixed 4.

// DefaultBlockSize is the adjacency block length used when a caller
// passes blockSize <= 0: large enough that the per-block index costs
// under 0.07 bytes/edge, small enough that an edge probe decodes a
// cache-resident run.
const DefaultBlockSize = 128

// maxBlockSize bounds the per-vertex relative byte offsets to uint32.
const maxBlockSize = 1 << 16

// CompressedGraph is the compressed tier. It implements Adjacency; hot
// paths decode through Row into buffers they own, on a per-worker View
// (which adds a private probe buffer and decode counters), except
// for the highest-degree rows, which the graph keeps decoded (hotrows.go)
// and lends like plain CSR.
type CompressedGraph struct {
	nv        int
	ne        uint64
	maxDeg    int
	blockSize int

	degs       []uint32 // per-vertex degree
	encOff     []uint64 // per-vertex byte offset into stream, nv+1 entries
	blockOff   []uint64 // per-vertex first block index, nv+1 entries
	blockFirst []uint32 // per-block first element
	blockByte  []uint32 // per-block byte offset relative to the vertex's encOff
	stream     []byte   // delta-varint encoded adjacency

	labels []int32  // nil when unlabeled
	orig   []uint32 // renumbering permutation, orig[new] = old (nil if none)

	backing *mapping // non-nil when the arrays alias an mmap'd file

	probePool sync.Pool // block-decode buffers for the shared HasEdge
	sum       summaryMemo
	hot       hotMemo // the highest-degree rows, decoded on first use
}

// Compress encodes g into the compressed tier. blockSize <= 0 selects
// DefaultBlockSize. The input graph is not retained.
func Compress(g *Graph, blockSize int) (*CompressedGraph, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if blockSize > maxBlockSize {
		return nil, fmt.Errorf("graph: block size %d exceeds max %d", blockSize, maxBlockSize)
	}
	n := g.NumVertices()
	c := &CompressedGraph{
		nv:        n,
		ne:        g.NumEdges(),
		maxDeg:    g.MaxDegree(),
		blockSize: blockSize,
		degs:      make([]uint32, n),
		encOff:    make([]uint64, n+1),
		blockOff:  make([]uint64, n+1),
		labels:    g.labels,
		orig:      g.orig,
	}
	var nb uint64
	for v := 0; v < n; v++ {
		d := g.Degree(uint32(v))
		c.degs[v] = uint32(d)
		nb += uint64((d + blockSize - 1) / blockSize)
	}
	c.blockFirst = make([]uint32, 0, nb)
	c.blockByte = make([]uint32, 0, nb)
	var buf [binary.MaxVarintLen32]byte
	stream := make([]byte, 0, 2*c.ne) // optimistic ~1 byte per directed edge
	for v := 0; v < n; v++ {
		c.encOff[v] = uint64(len(stream))
		c.blockOff[v] = uint64(len(c.blockFirst))
		row := g.Neighbors(uint32(v))
		vertexBase := len(stream)
		for b := 0; b < len(row); b += blockSize {
			end := b + blockSize
			if end > len(row) {
				end = len(row)
			}
			blk := row[b:end]
			rel := len(stream) - vertexBase
			if rel > int(^uint32(0)) {
				return nil, fmt.Errorf("graph: vertex %d row encoding exceeds 4GiB", v)
			}
			c.blockFirst = append(c.blockFirst, blk[0])
			c.blockByte = append(c.blockByte, uint32(rel))
			k := binary.PutUvarint(buf[:], uint64(blk[0]))
			stream = append(stream, buf[:k]...)
			prev := blk[0]
			for _, x := range blk[1:] {
				k = binary.PutUvarint(buf[:], uint64(x-prev))
				stream = append(stream, buf[:k]...)
				prev = x
			}
		}
	}
	c.encOff[n] = uint64(len(stream))
	c.blockOff[n] = uint64(len(c.blockFirst))
	c.stream = stream
	return c, nil
}

// NumVertices returns the number of vertices.
func (c *CompressedGraph) NumVertices() int { return c.nv }

// NumEdges returns the number of undirected edges.
func (c *CompressedGraph) NumEdges() uint64 { return c.ne }

// Degree returns the degree of v.
func (c *CompressedGraph) Degree(v uint32) int { return int(c.degs[v]) }

// MaxDegree returns the maximum vertex degree (precomputed at build).
func (c *CompressedGraph) MaxDegree() int { return c.maxDeg }

// AvgDegree returns the average vertex degree.
func (c *CompressedGraph) AvgDegree() float64 {
	if c.nv == 0 {
		return 0
	}
	return 2 * float64(c.ne) / float64(c.nv)
}

// BlockSize returns the adjacency block length the graph was encoded with.
func (c *CompressedGraph) BlockSize() int { return c.blockSize }

// Labeled reports whether the graph carries vertex labels.
func (c *CompressedGraph) Labeled() bool { return c.labels != nil }

// Label returns the label of v, or -1 for unlabeled graphs.
func (c *CompressedGraph) Label(v uint32) int32 {
	if c.labels == nil {
		return -1
	}
	return c.labels[v]
}

// Labels exposes the per-vertex label slice (nil when unlabeled).
func (c *CompressedGraph) Labels() []int32 { return c.labels }

// NumLabels returns the number of distinct labels (0 when unlabeled).
func (c *CompressedGraph) NumLabels() int {
	if c.labels == nil {
		return 0
	}
	seen := map[int32]struct{}{}
	for _, l := range c.labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// HubBits always returns nil: the compressed tier carries no hub-bitset
// index (engines fall back to the merge/gallop kernels).
func (c *CompressedGraph) HubBits(uint32) []uint64 { return nil }

// OrigIDs returns the stored renumbering permutation (orig[new] = old),
// or nil when the graph was never renumbered.
func (c *CompressedGraph) OrigIDs() []uint32 { return c.orig }

// View returns a per-worker handle with a private probe buffer and
// decode counters. The receiver stays shared and immutable.
func (c *CompressedGraph) View() Adjacency {
	return c.view()
}

// view is View's handle. The first view builds the hot rows.
func (c *CompressedGraph) view() *compressedView {
	return &compressedView{g: c, hot: c.hotRows()}
}

// Neighbors returns v's hot row, or decodes the row into a freshly
// allocated slice; either may be kept (hot paths use Row).
func (c *CompressedGraph) Neighbors(v uint32) []uint32 {
	row, _ := c.Row(v, nil)
	return row
}

// Row lends v's hot row and hands buf back untouched, or decodes the row
// into buf (see the Adjacency row lifetime contract). The shared-object
// form counts nothing; views do.
func (c *CompressedGraph) Row(v uint32, buf []uint32) (row, next []uint32) {
	if row, ok := c.hotRows().row(v); ok {
		return row, buf
	}
	row = c.decodeRow(v, buf)
	return row, row
}

// decodeRun is the one varint kernel under decodeRow and decodeBlock: it
// fills out with delta-decoded elements of b, which must start at a
// block boundary — every blockSize-th element is a block head (absolute,
// i.e. a gap from zero), the rest are gaps from their predecessor — and
// returns how many it decoded. Gaps of a sorted row are almost always
// below 2^14, so 1- and 2-byte varints are decoded inline and anything
// longer falls back to binary.Uvarint. A truncated or malformed varint
// ends the run short rather than reading out of bounds; Verify rejects
// such streams up front.
func decodeRun(b []byte, out []uint32, blockSize int) int {
	pos := 0
	for i := 0; i < len(out); {
		end := min(i+blockSize, len(out))
		var cur uint32
		for ; i < end; i++ {
			switch {
			case pos < len(b) && b[pos] < 0x80:
				cur += uint32(b[pos])
				pos++
			case pos+1 < len(b) && b[pos+1] < 0x80:
				cur += uint32(b[pos]&0x7f) | uint32(b[pos+1])<<7
				pos += 2
			default:
				x, n := binary.Uvarint(b[pos:])
				if n <= 0 {
					return i
				}
				cur += uint32(x)
				pos += n
			}
			out[i] = cur
		}
	}
	return len(out)
}

// sized returns buf resliced to n elements, reallocated (with doubling,
// so a buffer reused across rows settles at the largest degree it has
// held) when its capacity falls short.
func sized(buf []uint32, n int) []uint32 {
	if cap(buf) < n {
		buf = make([]uint32, n, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// decodeRow decodes the row of v into buf (contents discarded, regrown
// when too small) and returns it; a malformed stream yields a short row.
func (c *CompressedGraph) decodeRow(v uint32, buf []uint32) []uint32 {
	buf = sized(buf, int(c.degs[v]))
	n := decodeRun(c.stream[c.encOff[v]:c.encOff[v+1]], buf, c.blockSize)
	return buf[:n]
}

// decodeBlock decodes one block (index bi, global) of vertex v into buf.
// A block offset past the row's bytes (an unverified file) decodes
// nothing.
func (c *CompressedGraph) decodeBlock(v uint32, bi uint64, buf []uint32) []uint32 {
	end := c.encOff[v+1]
	start := min(c.encOff[v]+uint64(c.blockByte[bi]), end)
	// Elements in this block: blockSize except possibly the last block.
	local := bi - c.blockOff[v]
	count := min(c.blockSize, int(c.degs[v])-int(local)*c.blockSize)
	buf = sized(buf, count)
	n := decodeRun(c.stream[start:end], buf, c.blockSize)
	return buf[:n]
}

// findProbeBlock locates the block of u's row that could contain v:
// the last block whose first element is <= v. The bool is false when
// the row is empty or v precedes the whole row — no decode needed.
func (c *CompressedGraph) findProbeBlock(u, v uint32) (uint64, bool) {
	lo, hi := c.blockOff[u], c.blockOff[u+1]
	if lo == hi {
		return 0, false
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if c.blockFirst[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == c.blockOff[u] {
		return 0, false // v precedes the first element of the row
	}
	return lo - 1, true
}

// searchBlock reports whether v occurs in a decoded (ascending) block.
func searchBlock(a []uint32, v uint32) bool {
	i, j := 0, len(a)
	for i < j {
		mid := (i + j) / 2
		if a[mid] < v {
			i = mid + 1
		} else {
			j = mid
		}
	}
	return i < len(a) && a[i] == v
}

// hasEdgeInto probes {u,v} decoding at most one block of the smaller-
// degree endpoint into buf (returned regrown for reuse).
func (c *CompressedGraph) hasEdgeInto(u, v uint32, buf []uint32) (bool, []uint32) {
	if c.degs[u] > c.degs[v] {
		u, v = v, u
	}
	bi, ok := c.findProbeBlock(u, v)
	if !ok {
		return false, buf
	}
	buf = c.decodeBlock(u, bi, buf)
	return searchBlock(buf, v), buf
}

// HasEdge reports whether {u,v} is an edge: a binary search when the
// higher-degree endpoint is hot, else a block probe. The shared-object
// form takes a pooled probe buffer; views use their private one.
func (c *CompressedGraph) HasEdge(u, v uint32) bool {
	if c.degs[u] > c.degs[v] {
		u, v = v, u
	}
	if row, ok := c.hotRows().row(v); ok {
		return searchBlock(row, u)
	}
	bufp, _ := c.probePool.Get().(*[]uint32)
	if bufp == nil {
		b := make([]uint32, 0, c.blockSize)
		bufp = &b
	}
	ok, b := c.hasEdgeInto(u, v, *bufp)
	*bufp = b
	c.probePool.Put(bufp)
	return ok
}

// ResidencyStats describes how much of an mmap-backed graph's file is
// resident in the page cache. Sampled is false for heap-backed graphs
// and on platforms without mincore(2) — a zero ResidentBytes then means
// "unknown", not "cold".
type ResidencyStats struct {
	MappedBytes   uint64 `json:"mapped_bytes"`
	ResidentBytes uint64 `json:"resident_bytes"`
	Sampled       bool   `json:"sampled"`
}

// Residency samples page-cache residency of the graph's mmap backing
// via mincore(2). Point-in-time and advisory: the kernel may evict or
// fault pages the instant after sampling. Heap-backed graphs return an
// unsampled zero value.
func (c *CompressedGraph) Residency() ResidencyStats {
	if c == nil || c.backing == nil || !residencySupported {
		return ResidencyStats{}
	}
	data := mappingBytes(c.backing)
	if len(data) == 0 {
		return ResidencyStats{}
	}
	resident, mapped, err := mincoreResidency(data)
	if err != nil {
		return ResidencyStats{MappedBytes: mapped}
	}
	return ResidencyStats{MappedBytes: mapped, ResidentBytes: resident, Sampled: true}
}

// Close releases the decoded hot rows and the mmap backing, if any.
// After Close the graph must not be used.
func (c *CompressedGraph) Close() error {
	c.hot.ix.Store(&hotRows{}) // views still held keep theirs alive
	if c.backing == nil {
		return nil
	}
	m := c.backing
	c.backing = nil
	return m.close()
}

// Verify fully decodes the graph and checks every CSR invariant the
// kernels rely on: index consistency, strictly ascending rows, no self
// loops, in-range neighbors, symmetric adjacency and the edge count —
// and, once the hot rows are built, that each still equals its decode
// (no caller wrote through a lent row). O(E log d); used by converters
// and tests, not hot paths.
func (c *CompressedGraph) Verify() error {
	n := c.nv
	if len(c.encOff) != n+1 || len(c.blockOff) != n+1 || len(c.degs) != n {
		return fmt.Errorf("graph: compressed index length mismatch")
	}
	var dir uint64
	buf := make([]uint32, 0, c.maxDeg)
	probe := make([]uint32, 0, c.blockSize)
	for v := 0; v < n; v++ {
		if c.encOff[v] > c.encOff[v+1] || c.blockOff[v] > c.blockOff[v+1] {
			return fmt.Errorf("graph: descending offsets at vertex %d", v)
		}
		wantBlocks := (uint64(c.degs[v]) + uint64(c.blockSize) - 1) / uint64(c.blockSize)
		if c.blockOff[v+1]-c.blockOff[v] != wantBlocks {
			return fmt.Errorf("graph: vertex %d has %d blocks, want %d", v, c.blockOff[v+1]-c.blockOff[v], wantBlocks)
		}
		row := c.decodeRow(uint32(v), buf)
		buf = row
		if len(row) != int(c.degs[v]) {
			return fmt.Errorf("graph: vertex %d row decodes to %d of %d elements (truncated stream)", v, len(row), c.degs[v])
		}
		for i, u := range row {
			if int(u) >= n {
				return fmt.Errorf("graph: vertex %d lists out-of-range neighbor %d", v, u)
			}
			if u == uint32(v) {
				return fmt.Errorf("graph: self loop on vertex %d", v)
			}
			if i > 0 && row[i-1] >= u {
				return fmt.Errorf("graph: adjacency of %d not strictly ascending at index %d", v, i)
			}
			bi := c.blockOff[v] + uint64(i/c.blockSize)
			if i%c.blockSize == 0 && c.blockFirst[bi] != u {
				return fmt.Errorf("graph: block index first mismatch at vertex %d block %d", v, i/c.blockSize)
			}
			var ok bool
			ok, probe = c.hasEdgeInto(u, uint32(v), probe)
			if !ok {
				return fmt.Errorf("graph: asymmetric edge: %d lists %d but not vice versa", v, u)
			}
		}
		dir += uint64(len(row))
		if h := c.hot.ix.Load(); h != nil && h.off != nil {
			hot, ok := h.row(uint32(v))
			if ok != (int(c.degs[v]) >= h.minDeg) || ok && !slices.Equal(hot, row) {
				return fmt.Errorf("graph: hot row of vertex %d differs from its stream decode (written through?)", v)
			}
		}
	}
	if dir != 2*c.ne {
		return fmt.Errorf("graph: %d directed entries for %d undirected edges", dir, c.ne)
	}
	return nil
}

// Footprint describes the compressed tier's storage economics.
type Footprint struct {
	StreamBytes   uint64  // encoded adjacency bytes
	IndexBytes    uint64  // flat index arrays (degrees, offsets, block index)
	LabelBytes    uint64  // label section
	HotBytes      uint64  // heap the decoded hot rows hold once built, their index included (≤ StreamBytes)
	BytesPerEdge  float64 // (stream+index) bytes per directed edge
	Blocks        uint64  // total adjacency blocks
	MaxBlockBytes int     // largest single encoded block
}

// Footprint computes the storage summary reported by converters and the
// scale benchmark. HotBytes comes from the degrees alone, so it is valid
// before the hot rows are built.
func (c *CompressedGraph) Footprint() Footprint {
	_, hot := c.hotCut()
	f := Footprint{
		StreamBytes: uint64(len(c.stream)),
		IndexBytes: uint64(len(c.degs))*4 + uint64(len(c.encOff))*8 +
			uint64(len(c.blockOff))*8 + uint64(len(c.blockFirst))*4 + uint64(len(c.blockByte))*4,
		LabelBytes: uint64(len(c.labels)) * 4,
		HotBytes:   hot,
		Blocks:     uint64(len(c.blockFirst)),
	}
	for v := 0; v < c.nv; v++ {
		for bi := c.blockOff[v]; bi < c.blockOff[v+1]; bi++ {
			var end uint64
			if bi+1 < c.blockOff[v+1] {
				end = c.encOff[v] + uint64(c.blockByte[bi+1])
			} else {
				end = c.encOff[v+1]
			}
			if sz := int(end - (c.encOff[v] + uint64(c.blockByte[bi]))); sz > f.MaxBlockBytes {
				f.MaxBlockBytes = sz
			}
		}
	}
	if dir := 2 * c.ne; dir > 0 {
		f.BytesPerEdge = float64(f.StreamBytes+f.IndexBytes) / float64(dir)
	}
	return f
}

// compressedView is the per-worker handle: rows are lent from the graph's
// hot rows or decode into buffers the caller owns (see the Adjacency row
// lifetime contract), so all the view carries is the shared hot rows, a
// private edge-probe buffer and its decode counts. Only the view's own
// worker writes the counts; a DecodeCounters that tracks the view reads
// them after that worker has joined.
type compressedView struct {
	g     *CompressedGraph
	hot   *hotRows
	probe []uint32
	stats DecodeStats

	// Pad to whole cache lines: a pass takes one view per worker, one
	// allocation after another, and the counts above are written on
	// every row. Two workers' views must not share a line: sc-mmap's
	// latency moved by 10-20 % with whatever else a pass allocated in a
	// smaller size class (TestViewFillsWholeCacheLines).
	_ [48]byte
}

func (w *compressedView) NumVertices() int        { return w.g.nv }
func (w *compressedView) NumEdges() uint64        { return w.g.ne }
func (w *compressedView) Degree(v uint32) int     { return int(w.g.degs[v]) }
func (w *compressedView) MaxDegree() int          { return w.g.maxDeg }
func (w *compressedView) Labeled() bool           { return w.g.labels != nil }
func (w *compressedView) Label(v uint32) int32    { return w.g.Label(v) }
func (w *compressedView) Labels() []int32         { return w.g.labels }
func (w *compressedView) NumLabels() int          { return w.g.NumLabels() }
func (w *compressedView) HubBits(uint32) []uint64 { return nil }
func (w *compressedView) View() Adjacency         { return w }

// Neighbors lends v's hot row or decodes the row into a freshly
// allocated slice.
func (w *compressedView) Neighbors(v uint32) []uint32 {
	row, _ := w.Row(v, nil)
	return row
}

// Row lends v's hot row and hands buf back untouched, or decodes the row
// into buf and counts the decode.
func (w *compressedView) Row(v uint32, buf []uint32) (row, next []uint32) {
	if row, ok := w.hot.row(v); ok {
		return row, buf
	}
	row = w.g.decodeRow(v, buf)
	deg := uint64(len(row))
	w.stats.Rows++
	w.stats.Blocks += (deg + uint64(w.g.blockSize) - 1) / uint64(w.g.blockSize)
	w.stats.Elems += deg
	return row, row
}

// CountProbeHits records n edge probes the caller answered from rows it
// had already decoded through this view: such a probe decodes nothing.
func (w *compressedView) CountProbeHits(n uint64) { w.stats.ProbeHits += n }

// HasEdge binary-searches the higher-degree endpoint's row when it is
// hot, decoding and counting nothing. Otherwise it decodes the one block
// of the smaller-degree endpoint's row that could hold the other into
// the view's private buffer, counted like a row (one row, one block) and
// as a ProbeMiss.
func (w *compressedView) HasEdge(u, v uint32) bool {
	g := w.g
	if g.degs[u] > g.degs[v] {
		u, v = v, u
	}
	if row, ok := w.hot.row(v); ok {
		return searchBlock(row, u)
	}
	bi, ok := g.findProbeBlock(u, v)
	if !ok {
		return false
	}
	w.probe = g.decodeBlock(u, bi, w.probe)
	w.stats.Rows++
	w.stats.Blocks++
	w.stats.Elems += uint64(len(w.probe))
	w.stats.ProbeMisses++
	return searchBlock(w.probe, v)
}

// DecodeStats are decompression counters: how many rows and blocks were
// decoded, how many elements they expanded to, and how edge probes were
// answered. They quantify the decode overhead the compressed tier pays,
// per query scope via DecodeCounters (the registry's graph_decode_*
// counters sum them over runs). An edge probe that decodes counts as one
// row and one block (plus a ProbeMiss); a ProbeHit decodes nothing — it
// was answered from a row its caller already held (CountProbeHits).
type DecodeStats struct {
	Rows        uint64 `json:"rows"`
	Blocks      uint64 `json:"blocks"`
	Elems       uint64 `json:"elems"`
	ProbeHits   uint64 `json:"probe_hits"`
	ProbeMisses uint64 `json:"probe_misses"`
}

// Add accumulates other into s.
func (s *DecodeStats) Add(other DecodeStats) {
	s.Rows += other.Rows
	s.Blocks += other.Blocks
	s.Elems += other.Elems
	s.ProbeHits += other.ProbeHits
	s.ProbeMisses += other.ProbeMisses
}

// DecodedBytes returns the expanded size of all decoded elements — the
// "decode bytes" a dashboard charts per second.
func (s DecodeStats) DecodedBytes() uint64 { return s.Elems * 4 }

// DecodeCounters is a per-scope decode ledger. Attach one to a graph
// with WithDecodeAttribution and it tracks every view created through
// that wrapper — so a run's decode work is attributed to that run even
// while other queries decode concurrently. Views created without one
// count for nobody.
type DecodeCounters struct {
	mu    sync.Mutex
	views []*compressedView
}

// track registers a view whose counts Stats sums.
func (d *DecodeCounters) track(v *compressedView) {
	d.mu.Lock()
	d.views = append(d.views, v)
	d.mu.Unlock()
}

// Stats returns the sum of the tracked views' counts. Callers must ensure
// no worker is still decoding through the views: the runner calls it
// after mining has joined its workers, which orders the views' counts
// before the reads here.
func (d *DecodeCounters) Stats() DecodeStats {
	var out DecodeStats
	if d == nil {
		return out
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, v := range d.views {
		out.Add(v.stats)
	}
	return out
}
