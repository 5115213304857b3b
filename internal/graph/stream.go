package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Streaming two-pass edge-list loading. ReadEdgeList accumulates an
// unbounded edge slice plus a dedupe set before building the CSR, which
// roughly triples peak memory on multi-GB files. LoadEdgeListFile reads
// the file twice instead: pass 1 interns vertex IDs and counts degrees,
// pass 2 fills the adjacency arena directly, and the in-place
// sort/compact shared with Builder.Build collapses duplicate edges. Peak
// memory is one CSR arena (inflated only by duplicates present in the
// file) plus the ID intern table.

// LoadProgress is delivered to the optional progress callback of
// LoadEdgeListFile: once every progressEvery data lines and once at the
// end of each pass.
type LoadProgress struct {
	Pass  int   // 1 = count pass, 2 = fill pass
	Lines int64 // data lines consumed so far in this pass
	Done  bool  // true on the final callback of a pass
}

const progressEvery = 1 << 21

// scanEdgeLines parses the edge-list text format (see codec.go),
// dispatching label directives and edges to the callbacks. It performs
// all syntax validation, so ReadEdgeList and both passes of
// LoadEdgeListFile report identical errors.
func scanEdgeLines(r io.Reader, pass int, progress func(LoadProgress),
	onLabel func(raw uint64, lab int32) error, onEdge func(u, v uint64) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	var dataLines int64
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		dataLines++
		if progress != nil && dataLines%progressEvery == 0 {
			progress(LoadProgress{Pass: pass, Lines: dataLines})
		}
		fields := strings.Fields(line)
		if fields[0] == "v" {
			if len(fields) != 3 {
				return fmt.Errorf("graph: line %d: label directive needs 2 arguments", lineNo)
			}
			raw, err1 := strconv.ParseUint(fields[1], 10, 64)
			lab, err2 := strconv.ParseInt(fields[2], 10, 32)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("graph: line %d: bad label directive %q", lineNo, line)
			}
			if err := onLabel(raw, int32(lab)); err != nil {
				return err
			}
			continue
		}
		if len(fields) != 2 {
			return fmt.Errorf("graph: line %d: expected \"u v\", got %q", lineNo, line)
		}
		u, err1 := strconv.ParseUint(fields[0], 10, 64)
		v, err2 := strconv.ParseUint(fields[1], 10, 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("graph: line %d: bad edge %q", lineNo, line)
		}
		if u == v {
			// A self loop is never valid input for simple-graph mining;
			// dropping it silently would make counts differ from other
			// systems reading the same file, so fail loudly.
			return fmt.Errorf("graph: line %d: self loop %d-%d", lineNo, u, v)
		}
		if err := onEdge(u, v); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("graph: read: %w", err)
	}
	if progress != nil {
		progress(LoadProgress{Pass: pass, Lines: dataLines, Done: true})
	}
	return nil
}

// LoadEdgeListFile parses the edge-list text format of ReadEdgeList in
// two streaming passes over the file, producing an identical graph with
// roughly one-third of the peak memory. progress may be nil.
func LoadEdgeListFile(path string, progress func(LoadProgress)) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	// Pass 1: intern sparse vertex IDs in first-appearance order (same
	// densification as ReadEdgeList), count per-vertex degree, collect
	// labels.
	ids := map[uint64]uint32{}
	var labels []int32
	var degs []uint64
	labeled := false
	intern := func(raw uint64) uint32 {
		if v, ok := ids[raw]; ok {
			return v
		}
		v := uint32(len(ids))
		ids[raw] = v
		labels = append(labels, -1)
		degs = append(degs, 0)
		return v
	}
	err = scanEdgeLines(bufio.NewReaderSize(f, 1<<20), 1, progress,
		func(raw uint64, lab int32) error {
			labels[intern(raw)] = lab
			labeled = true
			return nil
		},
		func(u, v uint64) error {
			degs[intern(u)]++
			degs[intern(v)]++
			return nil
		})
	if err != nil {
		return nil, err
	}

	n := len(ids)
	offsets := make([]uint64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + degs[v]
	}
	adj := make([]uint32, offsets[n])
	fill := degs // reuse the degree array as fill cursors
	for i := range fill {
		fill[i] = 0
	}

	// Pass 2: fill the arena directly. The ID table is complete, so
	// intern degenerates to a lookup; a raw ID absent from the table (the
	// file changed between passes) fails rather than corrupting the CSR.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	lookup := func(raw uint64) (uint32, error) {
		v, ok := ids[raw]
		if !ok {
			return 0, fmt.Errorf("graph: %s: vertex %d appeared between passes (file changed?)", path, raw)
		}
		return v, nil
	}
	err = scanEdgeLines(bufio.NewReaderSize(f, 1<<20), 2, progress,
		func(raw uint64, lab int32) error {
			_, err := lookup(raw)
			return err
		},
		func(u, v uint64) error {
			a, err := lookup(u)
			if err != nil {
				return err
			}
			b, err := lookup(v)
			if err != nil {
				return err
			}
			if fill[a] >= offsets[a+1]-offsets[a] || fill[b] >= offsets[b+1]-offsets[b] {
				return fmt.Errorf("graph: %s: more edges in pass 2 than pass 1 (file changed?)", path)
			}
			adj[offsets[a]+fill[a]] = b
			fill[a]++
			adj[offsets[b]+fill[b]] = a
			fill[b]++
			return nil
		})
	if err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		if fill[v] != offsets[v+1]-offsets[v] {
			return nil, fmt.Errorf("graph: %s: fewer edges in pass 2 than pass 1 (file changed?)", path)
		}
	}

	g := &Graph{}
	g.offsets, g.adj, g.nEdges = sortCompactCSR(n, offsets, adj)
	if labeled {
		g.labels = labels
	}
	return g, nil
}
