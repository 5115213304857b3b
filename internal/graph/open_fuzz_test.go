package graph

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpen feeds Open mutated version-2 files: neither Open, with and
// without Verify, heap-read or mapped, nor the first View / Row /
// Neighbors / HasEdge on what it accepts may panic. The seeds are files of
// both tiers (labeled and renumbered ones among them) and targeted damage
// to each part the fuzzer would take long to find: header fields, the
// section table, index arrays and stream bytes. Without Verify, damaged
// adjacency may read as a wrong graph, never as a crash: decodeRun ends
// short on malformed bytes and the hot-row build with it.
func FuzzOpen(f *testing.F) {
	for _, seed := range openFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.mcsr")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, opts := range []OpenOptions{
			{Mode: OpenHeap}, {Mode: OpenHeap, Verify: true},
			{Mode: OpenAuto}, {Mode: OpenAuto, Verify: true},
		} {
			h, err := Open(path, opts)
			if err != nil {
				continue
			}
			firstReads(h.Graph())
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// firstReads makes the reads a first query makes: a view (building the
// hot rows), every row through it and through the shared object, and edge
// probes between in-range vertices.
func firstReads(a Adjacency) {
	v := a.View()
	n := a.NumVertices()
	var buf []uint32
	for x := 0; x < n; x++ {
		var row []uint32
		row, buf = v.Row(uint32(x), buf)
		a.Neighbors(uint32(x))
		for _, y := range row[:min(len(row), 4)] {
			if int(y) < n {
				v.HasEdge(uint32(x), y)
				a.HasEdge(y, uint32(x))
			}
		}
		v.HasEdge(uint32(x), uint32((x+1)%n))
	}
}

// openFuzzSeeds returns valid files of both tiers and damaged variants.
func openFuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	write := func(w func(*bytes.Buffer) error) []byte {
		var buf bytes.Buffer
		if err := w(&buf); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	g := randomGraph(tb, 40, 7, 0, 3)
	gl := RenumberByDegree(randomGraph(tb, 60, 9, 3, 4))
	for _, src := range []*Graph{g, gl} {
		seeds = append(seeds, write(func(b *bytes.Buffer) error { return src.WriteBinary2(b) }))
		for _, block := range []int{1, 4, 128} {
			c, err := Compress(src, block)
			if err != nil {
				tb.Fatal(err)
			}
			valid := write(func(b *bytes.Buffer) error { return c.WriteBinary2(b) })
			seeds = append(seeds, valid)
			for _, damage := range []func([]byte){
				func(b []byte) { binary.LittleEndian.PutUint64(b[12:], binary.LittleEndian.Uint64(b[12:])+1) }, // nv
				func(b []byte) { binary.LittleEndian.PutUint32(b[36:], 3) },                                    // block size
				func(b []byte) { binary.LittleEndian.PutUint64(b[v2HeaderSize+16:], 8) },                       // first section's length
				func(b []byte) { putSection32(b, secDegs, 1, 0) },
				func(b []byte) { putSection32(b, secBlockByte, 0, ^uint32(0)) },
				func(b []byte) { putSection32(b, secBlockFirst, 1, ^uint32(0)) },
				func(b []byte) { // block offsets from 2^62: 4·nb wraps to the true section lengths
					s := section(b, secBlockOff)
					for i := 0; i+8 <= len(s); i += 8 {
						binary.LittleEndian.PutUint64(s[i:], binary.LittleEndian.Uint64(s[i:])+1<<62)
					}
				},
				func(b []byte) { fillSection(b, secStream, 0x80) }, // every varint runs on
				func(b []byte) { fillSection(b, secStream, 0x7f) }, // gaps wrap and repeat
			} {
				d := bytes.Clone(valid)
				damage(d)
				seeds = append(seeds, d)
			}
		}
	}
	return seeds
}

// section returns the payload of section id in a version-2 file.
func section(b []byte, id uint32) []byte {
	n := binary.LittleEndian.Uint32(b[40:])
	for i := 0; i < int(n); i++ {
		e := b[v2HeaderSize+i*v2SectionSize:]
		if binary.LittleEndian.Uint32(e) == id {
			off, size := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
			return b[off : off+size]
		}
	}
	return nil
}

// putSection32 overwrites element i of a section of uint32s, if it has one.
func putSection32(b []byte, id uint32, i int, x uint32) {
	if s := section(b, id); len(s) >= 4*(i+1) {
		binary.LittleEndian.PutUint32(s[4*i:], x)
	}
}

func fillSection(b []byte, id uint32, x byte) {
	s := section(b, id)
	for i := range s {
		s[i] = x
	}
}
