package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// OpenOptions tune Open.
type OpenOptions struct {
	// Verify runs the full O(E) structural check after loading. Required
	// for untrusted files; skipped by default because it faults in every
	// page, defeating the out-of-core load.
	Verify bool
}

// Handle owns an opened graph file: the loaded Adjacency plus whatever
// backs it. Close releases the mapping (if any); the graph must not be
// used afterwards.
type Handle struct {
	adj    Adjacency
	m      *mapping
	mapped bool
}

// Graph returns the loaded adjacency: a *Graph for plain files, a
// *CompressedGraph for compressed ones.
func (h *Handle) Graph() Adjacency { return h.adj }

// Plain returns the loaded graph as a *Graph, or nil if the file held
// the compressed tier.
func (h *Handle) Plain() *Graph {
	g, _ := h.adj.(*Graph)
	return g
}

// Compressed returns the loaded graph as a *CompressedGraph, or nil if
// the file held a plain CSR.
func (h *Handle) Compressed() *CompressedGraph {
	c, _ := h.adj.(*CompressedGraph)
	return c
}

// Mapped reports whether the graph aliases a memory-mapped file.
func (h *Handle) Mapped() bool { return h.mapped }

// Close releases the mapping, if any, and a compressed graph's decoded
// hot rows.
func (h *Handle) Close() error {
	if c := h.Compressed(); c != nil {
		c.hot.ix.Store(&hotRows{})
	}
	if h.m == nil {
		return nil
	}
	m := h.m
	h.m = nil
	return m.close()
}

// LegacyFormatError is what Open returns for a version-1 binary file, a
// format nothing writes or reads any more.
type LegacyFormatError struct{ Path string }

func (e *LegacyFormatError) Error() string {
	return fmt.Sprintf("graph: %s: version-1 binary files are no longer read; rebuild the file from its edge list with `morphcli convert`", e.Path)
}

// Open loads a binary graph file written by WriteBinary2 in O(index) time:
// the header, section table, and per-vertex index arrays are validated, and
// adjacency bytes page in on demand when the file is memory-mapped. The file
// is mapped where the platform supports it and read into the heap otherwise
// (or when the mapping fails). A version-1 file ends in a
// *LegacyFormatError.
func Open(path string, opts OpenOptions) (*Handle, error) {
	return open(path, opts, mmapSupported)
}

// open is Open, mapping the file only when tryMmap is set.
func open(path string, opts OpenOptions, tryMmap bool) (*Handle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var head [8]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return nil, fmt.Errorf("graph: %s: header: %w", path, err)
	}
	if string(head[:4]) != binaryMagic {
		return nil, fmt.Errorf("graph: %s: bad magic %q", path, head[:4])
	}
	version := binary.LittleEndian.Uint32(head[4:])
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if version == binaryVersion1 {
		return nil, &LegacyFormatError{Path: path}
	}
	if version != binaryVersion2 {
		return nil, fmt.Errorf("graph: %s: unsupported binary version %d", path, version)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var (
		data []byte
		m    *mapping
	)
	if tryMmap {
		m, _ = mapFile(f, st.Size()) // a failed mapping falls back to the heap read
	}
	if m != nil {
		data = mappingBytes(m)
	} else {
		data = make([]byte, st.Size())
		if _, err := io.ReadFull(f, data); err != nil {
			return nil, fmt.Errorf("graph: %s: read: %w", path, err)
		}
	}
	adj, err := buildV2(data)
	if err != nil {
		if m != nil {
			m.close()
		}
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	if opts.Verify {
		var verr error
		switch g := adj.(type) {
		case *Graph:
			verr = g.VerifySorted()
		case *CompressedGraph:
			verr = g.Verify()
		}
		if verr != nil {
			if m != nil {
				m.close()
			}
			return nil, fmt.Errorf("graph: %s: %w", path, verr)
		}
	}
	if c, ok := adj.(*CompressedGraph); ok {
		c.backing = m
	}
	return &Handle{adj: adj, m: m, mapped: m != nil}, nil
}
