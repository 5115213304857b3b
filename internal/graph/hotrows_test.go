package graph_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"morphing/internal/dataset"
	"morphing/internal/graph"
)

// checkHotRows holds a compressed graph's hot rows to their rule
// (hotrows.go): the hot set is exactly {deg >= T}, the next degree class
// down would not have fit, every hot row equals both the stream's decode
// and the plain row, and Footprint.HotBytes counts them with their index
// and fits in the encoded stream. It returns the number of hot vertices.
func checkHotRows(t testing.TB, name string, c *graph.CompressedGraph, plain *graph.Graph) int {
	t.Helper()
	n := c.NumVertices()
	minDeg := c.HotMinDegree()
	classes := map[int]uint64{}
	var hot int
	var elems uint64
	for v := uint32(0); int(v) < n; v++ {
		d := c.Degree(v)
		classes[d]++
		row, ok := c.HotRow(v)
		if want := minDeg > 0 && d >= minDeg; ok != want {
			t.Errorf("%s: vertex %d of degree %d hot = %v, cut at %d", name, v, d, ok, minDeg)
			return -1
		}
		if !ok {
			continue
		}
		hot++
		elems += uint64(d)
		if !slices.Equal(row, c.DecodedRow(v)) || !slices.Equal(row, plain.Neighbors(v)) {
			t.Errorf("%s: hot row of %d is %v, the stream decodes %v", name, v, row, c.DecodedRow(v))
			return -1
		}
	}
	fp := c.Footprint()
	index := 4 * uint64(n+1)
	var want uint64
	if hot > 0 {
		want = 4*elems + index
	}
	if fp.HotBytes != want || fp.HotBytes > fp.StreamBytes {
		t.Errorf("%s: %d hot vertices hold %d B (index included), want %d within the %d B stream", name, hot, fp.HotBytes, want, fp.StreamBytes)
		return -1
	}
	// Minimal T: the largest class below the cut would have overflowed.
	below := c.MaxDegree() + 1
	if minDeg > 0 {
		below = minDeg
	}
	for d := below - 1; d >= 1; d-- {
		if classes[d] > 0 {
			if max(want, index)+4*uint64(d)*classes[d] <= fp.StreamBytes {
				t.Errorf("%s: the %d vertices of degree %d fit beside the hot rows but are cold", name, classes[d], d)
				return -1
			}
			break
		}
	}
	return hot
}

type hotRowShape struct {
	name   string
	g      *graph.Graph
	skewed bool // a recipe: it must have hot rows
}

// hotRowShapes are the graphs the property runs over: random and hubbed
// graphs, labeled and not, and every recipe at about a thousand vertices
// (the skew the rule is for).
func hotRowShapes(t *testing.T) []hotRowShape {
	t.Helper()
	var out []hotRowShape
	for i, s := range []struct {
		name         string
		n            int
		deg          float64
		hubs, labels int
	}{
		{"er60", 60, 9, 0, 0}, {"er300-l4", 300, 12, 0, 4},
		{"hubbed80", 80, 3, 3, 0}, {"hubbed400-l3", 400, 6, 4, 3},
	} {
		g, err := dataset.Hubbed(s.n, s.deg, s.hubs, s.labels, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, hotRowShape{s.name, g, false})
	}
	for _, r := range dataset.All() {
		g, err := r.Scaled(1000 / float64(r.Vertices)).Generate()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, hotRowShape{r.Name, g, true})
	}
	return out
}

// TestHotRowsFollowTheRule checks the rule on every shape, at block sizes
// 1 to 128, on the graph Compress returns and on its file opened into the
// heap and mapped (where the platform maps), and that Verify finds every
// hot row equal to its decode. Every recipe has hot rows.
func TestHotRowsFollowTheRule(t *testing.T) {
	dir := t.TempDir()
	for _, s := range hotRowShapes(t) {
		for _, block := range []int{1, 2, 7, 32, 128} {
			c, err := graph.Compress(s.g, block)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.mcsr", s.name, block))
			writeFile(t, path, c)
			check := func(mode string, oc *graph.CompressedGraph) {
				name := fmt.Sprintf("%s/b%d/%s", s.name, block, mode)
				if hot := checkHotRows(t, name, oc, s.g); hot == 0 && s.skewed {
					t.Errorf("%s: no hot rows on a skewed recipe", name)
				}
				if err := oc.Verify(); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
			check("compress", c)
			for _, m := range []struct {
				name string
				open func(string, graph.OpenOptions) (*graph.Handle, error)
			}{{"heap", graph.OpenHeap}, {"mapped", graph.Open}} {
				h, err := m.open(path, graph.OpenOptions{})
				if err != nil {
					t.Fatalf("%s open %s: %v", m.name, path, err)
				}
				check(m.name, h.Compressed())
				h.Close()
				if h.Compressed().HotMinDegree() != 0 {
					t.Errorf("%s/b%d/%s: Close kept the hot rows", s.name, block, m.name)
				}
			}
		}
	}
}

func writeFile(t *testing.T, path string, c *graph.CompressedGraph) {
	t.Helper()
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
}

// TestHotRowsBuildOnce races goroutines to the first View of a fresh
// compressed graph (run under -race): each must be lent the same hot row
// of the highest-degree vertex, from the one build.
func TestHotRowsBuildOnce(t *testing.T) {
	r, err := dataset.ByName("MG")
	if err != nil {
		t.Fatal(err)
	}
	g, err := r.Scaled(1000 / float64(r.Vertices)).Generate()
	if err != nil {
		t.Fatal(err)
	}
	c, err := graph.Compress(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	top := uint32(0)
	for v := uint32(1); int(v) < g.NumVertices(); v++ {
		if g.Degree(v) > g.Degree(top) {
			top = v
		}
	}
	var wg sync.WaitGroup
	first := make([][]uint32, 8)
	for i := range first {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first[i], _ = c.View().Row(top, nil)
			checkHotRows(t, "racing", c, g)
		}()
	}
	wg.Wait()
	for i, row := range first {
		if len(row) == 0 || &row[0] != &first[0][0] {
			t.Fatalf("goroutine %d was lent a row of another build than goroutine 0", i)
		}
	}
}

// TestHotRowBuildFaultIsTyped truncates a mapped file before its first
// View: the hot-row build reads the mapping under SetPanicOnFault, so the
// fault comes back as graph.ErrMappingFault — on every later View too —
// and the process lives on.
func TestHotRowBuildFaultIsTyped(t *testing.T) {
	r, err := dataset.ByName("MI")
	if err != nil {
		t.Fatal(err)
	}
	g, err := r.Scaled(1000 / float64(r.Vertices)).Generate()
	if err != nil {
		t.Fatal(err)
	}
	c, err := graph.Compress(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.mcsr")
	writeFile(t, path, c)
	h, err := graph.Open(path, graph.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if !h.Mapped() {
		t.Skip("no mmap on this platform")
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				err, _ := recover().(error)
				if !errors.Is(err, graph.ErrMappingFault) {
					t.Fatalf("View %d of a truncated mapping: recovered %v, want graph.ErrMappingFault", i, err)
				}
			}()
			h.Graph().View()
		}()
	}
}
