package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"
)

// Version-2 binary format: a sectioned, 8-byte-aligned container that
// both the plain CSR and the compressed tier serialize into, designed so
// a reader can alias the file bytes directly (mmap or a single heap
// read) and be query-ready after touching only the header, the section
// table, and the O(nv) index sections — adjacency pages in on demand.
//
// Layout (little endian):
//
//	magic "MCSR" | version u32 = 2 | flags u32 | nv u64 | ne u64
//	maxDeg u64 | blockSize u32 | nSections u32
//	section table: nSections x { id u32 | reserved u32 | off u64 | len u64 }
//	section payloads, each 8-byte aligned, zero padding between
//
// Flags: 1 = labeled, 2 = compressed tier, 4 = renumbering permutation
// stored. Section offsets are from the start of the file. Version 1 (a
// flat header + offsets/adj/labels dump) has no writer and no reader any
// more; Open recognizes its header and says how to replace the file.

const (
	binaryMagic    = "MCSR"
	binaryVersion1 = 1
	binaryVersion2 = 2

	flagLabeled    = 1
	flagCompressed = 2
	flagPerm       = 4

	secOffsets    = 1  // u64 x (nv+1)       plain CSR row offsets
	secAdj        = 2  // u32 x 2ne          plain CSR adjacency
	secLabels     = 3  // i32 x nv           vertex labels
	secPerm       = 4  // u32 x nv           renumbering permutation, orig[new]=old
	secDegs       = 5  // u32 x nv           compressed per-vertex degrees
	secEncOff     = 6  // u64 x (nv+1)       compressed per-vertex stream offsets
	secBlockOff   = 7  // u64 x (nv+1)       compressed per-vertex block indexes
	secBlockFirst = 8  // u32 x nb           per-block first element
	secBlockByte  = 9  // u32 x nb           per-block byte offset within the vertex row
	secStream     = 10 // bytes              delta-varint adjacency stream

	v2HeaderSize  = 44
	v2SectionSize = 24
)

// hostLE reports whether the host is little endian; the aliasing fast
// paths require it (the format itself is always little endian).
var hostLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// ---- typed-slice <-> byte helpers -----------------------------------------

// aliasable reports whether b can be reinterpreted in place as a slice
// of elemSize-byte little-endian values.
func aliasable(b []byte, elemSize int) bool {
	return hostLE && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%uintptr(elemSize) == 0
}

// viewU64 reinterprets b as []uint64, aliasing when possible and
// decoding into a fresh slice otherwise (big-endian host, misalignment).
func viewU64(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	if aliasable(b, 8) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

func viewU32(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	if aliasable(b, 4) {
		return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4)
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

func viewI32(b []byte) []int32 {
	u := viewU32(b)
	if u == nil {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(u))), len(u))
}

// writeSlab writes a typed slice as little-endian bytes. On little-endian
// hosts it streams the backing bytes directly; otherwise it converts in
// bounded chunks (never a full-size temporary).
func writeSlab[T uint32 | int32 | uint64](w io.Writer, s []T) error {
	if len(s) == 0 {
		return nil
	}
	size := int(unsafe.Sizeof(s[0]))
	if hostLE {
		b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*size)
		_, err := w.Write(b)
		return err
	}
	const chunk = 64 << 10
	buf := make([]byte, 0, chunk*size)
	for _, v := range s {
		switch size {
		case 4:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		case 8:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		if len(buf) == cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// ---- writer ---------------------------------------------------------------

type v2Section struct {
	id    uint32
	size  uint64
	write func(io.Writer) error
}

func writeV2(w io.Writer, flags uint32, nv int, ne uint64, maxDeg int, blockSize int, secs []v2Section) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [v2HeaderSize]byte
	copy(hdr[:4], binaryMagic)
	binary.LittleEndian.PutUint32(hdr[4:], binaryVersion2)
	binary.LittleEndian.PutUint32(hdr[8:], flags)
	binary.LittleEndian.PutUint64(hdr[12:], uint64(nv))
	binary.LittleEndian.PutUint64(hdr[20:], ne)
	binary.LittleEndian.PutUint64(hdr[28:], uint64(maxDeg))
	binary.LittleEndian.PutUint32(hdr[36:], uint32(blockSize))
	binary.LittleEndian.PutUint32(hdr[40:], uint32(len(secs)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	off := align8(uint64(v2HeaderSize + v2SectionSize*len(secs)))
	var table [v2SectionSize]byte
	offs := make([]uint64, len(secs))
	for i, s := range secs {
		offs[i] = off
		binary.LittleEndian.PutUint32(table[0:], s.id)
		binary.LittleEndian.PutUint32(table[4:], 0)
		binary.LittleEndian.PutUint64(table[8:], off)
		binary.LittleEndian.PutUint64(table[16:], s.size)
		if _, err := bw.Write(table[:]); err != nil {
			return err
		}
		off = align8(off + s.size)
	}
	var pad [8]byte
	cur := uint64(v2HeaderSize + v2SectionSize*len(secs))
	for i, s := range secs {
		if offs[i] > cur {
			if _, err := bw.Write(pad[:offs[i]-cur]); err != nil {
				return err
			}
			cur = offs[i]
		}
		if err := s.write(bw); err != nil {
			return err
		}
		cur += s.size
	}
	return bw.Flush()
}

func slabSection[T uint32 | int32 | uint64](id uint32, s []T) v2Section {
	var zero T
	return v2Section{
		id:    id,
		size:  uint64(len(s)) * uint64(unsafe.Sizeof(zero)),
		write: func(w io.Writer) error { return writeSlab(w, s) },
	}
}

// WriteBinary2 serializes g in the version-2 sectioned format, which Open
// loads and memory-maps.
func (g *Graph) WriteBinary2(w io.Writer) error {
	var flags uint32
	secs := []v2Section{
		slabSection(secOffsets, g.offsets),
		slabSection(secAdj, g.adj),
	}
	if g.labels != nil {
		flags |= flagLabeled
		secs = append(secs, slabSection(secLabels, g.labels))
	}
	if g.orig != nil {
		flags |= flagPerm
		secs = append(secs, slabSection(secPerm, g.orig))
	}
	return writeV2(w, flags, g.NumVertices(), g.nEdges, g.MaxDegree(), 0, secs)
}

// WriteBinary2 serializes the compressed tier in the version-2 format.
func (c *CompressedGraph) WriteBinary2(w io.Writer) error {
	flags := uint32(flagCompressed)
	secs := []v2Section{
		slabSection(secDegs, c.degs),
		slabSection(secEncOff, c.encOff),
		slabSection(secBlockOff, c.blockOff),
		slabSection(secBlockFirst, c.blockFirst),
		slabSection(secBlockByte, c.blockByte),
		{id: secStream, size: uint64(len(c.stream)), write: func(w io.Writer) error {
			_, err := w.Write(c.stream)
			return err
		}},
	}
	if c.labels != nil {
		flags |= flagLabeled
		secs = append(secs, slabSection(secLabels, c.labels))
	}
	if c.orig != nil {
		flags |= flagPerm
		secs = append(secs, slabSection(secPerm, c.orig))
	}
	return writeV2(w, flags, c.nv, c.ne, c.maxDeg, c.blockSize, secs)
}

// ---- reader ---------------------------------------------------------------

type v2File struct {
	flags     uint32
	nv        uint64
	ne        uint64
	maxDeg    uint64
	blockSize uint32
	sections  map[uint32][]byte
}

// parseV2Header validates the container framing of a version-2 file:
// magic, version, header sanity, and a fully bounds-checked section
// table. It reads nothing beyond the table, so it is O(sections) even
// on an out-of-core file.
func parseV2Header(data []byte) (*v2File, error) {
	if len(data) < v2HeaderSize {
		return nil, fmt.Errorf("graph: file truncated: %d bytes, need %d header bytes", len(data), v2HeaderSize)
	}
	if string(data[:4]) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != binaryVersion2 {
		return nil, fmt.Errorf("graph: unsupported binary version %d", v)
	}
	f := &v2File{
		flags:     binary.LittleEndian.Uint32(data[8:]),
		nv:        binary.LittleEndian.Uint64(data[12:]),
		ne:        binary.LittleEndian.Uint64(data[20:]),
		maxDeg:    binary.LittleEndian.Uint64(data[28:]),
		blockSize: binary.LittleEndian.Uint32(data[36:]),
		sections:  map[uint32][]byte{},
	}
	const maxReasonable = 1 << 33 // refuse absurd headers instead of OOM
	if f.nv > maxReasonable || f.ne > maxReasonable {
		return nil, fmt.Errorf("graph: header claims %d vertices / %d edges", f.nv, f.ne)
	}
	if f.maxDeg > f.nv {
		return nil, fmt.Errorf("graph: header claims max degree %d on %d vertices", f.maxDeg, f.nv)
	}
	nSec := binary.LittleEndian.Uint32(data[40:])
	if nSec > 64 {
		return nil, fmt.Errorf("graph: header claims %d sections", nSec)
	}
	tableEnd := uint64(v2HeaderSize) + uint64(nSec)*v2SectionSize
	if tableEnd > uint64(len(data)) {
		return nil, fmt.Errorf("graph: file truncated inside section table")
	}
	for i := uint32(0); i < nSec; i++ {
		e := data[v2HeaderSize+int(i)*v2SectionSize:]
		id := binary.LittleEndian.Uint32(e)
		off := binary.LittleEndian.Uint64(e[8:])
		size := binary.LittleEndian.Uint64(e[16:])
		if off%8 != 0 {
			return nil, fmt.Errorf("graph: section %d misaligned at offset %d", id, off)
		}
		if off > uint64(len(data)) || size > uint64(len(data))-off {
			return nil, fmt.Errorf("graph: section %d [%d,+%d) exceeds file size %d (truncated?)", id, off, size, len(data))
		}
		if _, dup := f.sections[id]; dup {
			return nil, fmt.Errorf("graph: duplicate section %d", id)
		}
		f.sections[id] = data[off : off+size]
	}
	return f, nil
}

// sec fetches a required section and checks its exact byte length.
func (f *v2File) sec(id uint32, wantLen uint64, what string) ([]byte, error) {
	b, ok := f.sections[id]
	if !ok {
		return nil, fmt.Errorf("graph: missing %s section", what)
	}
	if uint64(len(b)) != wantLen {
		return nil, fmt.Errorf("graph: %s section is %d bytes, want %d", what, len(b), wantLen)
	}
	return b, nil
}

func (f *v2File) labelsPerm() (labels []int32, perm []uint32, err error) {
	if f.flags&flagLabeled != 0 {
		b, err := f.sec(secLabels, 4*f.nv, "labels")
		if err != nil {
			return nil, nil, err
		}
		labels = viewI32(b)
	}
	if f.flags&flagPerm != 0 {
		b, err := f.sec(secPerm, 4*f.nv, "permutation")
		if err != nil {
			return nil, nil, err
		}
		perm = viewU32(b)
	}
	return labels, perm, nil
}

// buildV2 assembles a graph over the (mmap'd or heap) file bytes,
// validating the O(nv) index sections so a corrupt index can never
// drive an out-of-bounds access; full O(E) adjacency validation is
// deferred to Verify/VerifySorted (tests and converters run it, hot
// loaders must not — it would fault in every page).
func buildV2(data []byte) (Adjacency, error) {
	f, err := parseV2Header(data)
	if err != nil {
		return nil, err
	}
	labels, perm, err := f.labelsPerm()
	if err != nil {
		return nil, err
	}
	if f.flags&flagCompressed == 0 {
		ob, err := f.sec(secOffsets, 8*(f.nv+1), "offsets")
		if err != nil {
			return nil, err
		}
		ab, err := f.sec(secAdj, 4*2*f.ne, "adjacency")
		if err != nil {
			return nil, err
		}
		g := &Graph{offsets: viewU64(ob), adj: viewU32(ab), labels: labels, orig: perm, nEdges: f.ne}
		if g.offsets[0] != 0 || g.offsets[f.nv] != 2*f.ne {
			return nil, fmt.Errorf("graph: inconsistent offsets")
		}
		for v := uint64(0); v < f.nv; v++ {
			if g.offsets[v] > g.offsets[v+1] {
				return nil, fmt.Errorf("graph: descending offset at vertex %d", v)
			}
		}
		return g, nil
	}
	if f.blockSize == 0 || f.blockSize > maxBlockSize {
		return nil, fmt.Errorf("graph: bad block size %d", f.blockSize)
	}
	db, err := f.sec(secDegs, 4*f.nv, "degrees")
	if err != nil {
		return nil, err
	}
	eb, err := f.sec(secEncOff, 8*(f.nv+1), "stream offsets")
	if err != nil {
		return nil, err
	}
	bb, err := f.sec(secBlockOff, 8*(f.nv+1), "block offsets")
	if err != nil {
		return nil, err
	}
	c := &CompressedGraph{
		nv:        int(f.nv),
		ne:        f.ne,
		maxDeg:    int(f.maxDeg),
		blockSize: int(f.blockSize),
		degs:      viewU32(db),
		encOff:    viewU64(eb),
		blockOff:  viewU64(bb),
		labels:    labels,
		orig:      perm,
	}
	// Starting at 0, the block count the loop below checks bounds nb; from
	// near 2^62 the section lengths 4·nb wrap and could match.
	if c.blockOff[0] != 0 {
		return nil, fmt.Errorf("graph: block offsets do not start at 0")
	}
	nb := c.blockOff[f.nv]
	fb, err := f.sec(secBlockFirst, 4*nb, "block firsts")
	if err != nil {
		return nil, err
	}
	yb, err := f.sec(secBlockByte, 4*nb, "block bytes")
	if err != nil {
		return nil, err
	}
	sb, err := f.sec(secStream, c.encOff[f.nv], "stream")
	if err != nil {
		return nil, err
	}
	c.blockFirst = viewU32(fb)
	c.blockByte = viewU32(yb)
	c.stream = sb
	var dir uint64
	for v := uint64(0); v < f.nv; v++ {
		if c.encOff[v] > c.encOff[v+1] || c.blockOff[v] > c.blockOff[v+1] {
			return nil, fmt.Errorf("graph: descending offset at vertex %d", v)
		}
		d := uint64(c.degs[v])
		if d > f.maxDeg {
			return nil, fmt.Errorf("graph: vertex %d degree %d exceeds stated max %d", v, d, f.maxDeg)
		}
		if want := (d + uint64(f.blockSize) - 1) / uint64(f.blockSize); c.blockOff[v+1]-c.blockOff[v] != want {
			return nil, fmt.Errorf("graph: vertex %d block count mismatch", v)
		}
		if c.encOff[v+1]-c.encOff[v] < d && d > 0 {
			return nil, fmt.Errorf("graph: vertex %d stream shorter than its degree", v)
		}
		dir += d
	}
	if dir != 2*f.ne {
		return nil, fmt.Errorf("graph: %d directed entries for %d undirected edges", dir, f.ne)
	}
	return c, nil
}
