package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func squareWithDiagonal(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(4, [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	g := squareWithDiagonal(t)
	if g.NumVertices() != 4 || g.NumEdges() != 5 {
		t.Fatalf("got %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if g.Degree(0) != 3 || g.Degree(1) != 2 {
		t.Fatalf("degrees wrong: %d, %d", g.Degree(0), g.Degree(1))
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []uint32{1, 2, 3}) {
		t.Fatalf("Neighbors(0) = %v", got)
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) || g.HasEdge(1, 3) {
		t.Fatal("HasEdge wrong")
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	if got := g.AvgDegree(); got != 2.5 {
		t.Fatalf("AvgDegree = %v", got)
	}
}

func TestBuilderValidation(t *testing.T) {
	if _, err := FromEdges(3, [][2]uint32{{0, 3}}, nil); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := FromEdges(3, [][2]uint32{{1, 1}}, nil); err == nil {
		t.Error("self loop accepted")
	}
	if _, err := FromEdges(3, [][2]uint32{{0, 1}}, []int32{1}); err == nil {
		t.Error("label length mismatch accepted")
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	g, err := FromEdges(3, [][2]uint32{{0, 1}, {1, 0}, {0, 1}, {1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 after dedup", g.NumEdges())
	}
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []uint32{0, 2}) {
		t.Fatalf("Neighbors(1) = %v", got)
	}
}

func TestLabels(t *testing.T) {
	g, err := FromEdges(3, [][2]uint32{{0, 1}}, []int32{5, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Labeled() || g.Label(0) != 5 || g.Label(2) != 9 {
		t.Fatal("labels wrong")
	}
	if g.NumLabels() != 2 {
		t.Fatalf("NumLabels = %d", g.NumLabels())
	}
	u := MustFromEdges(2, [][2]uint32{{0, 1}}, nil)
	if u.Labeled() || u.Label(0) != -1 || u.NumLabels() != 0 {
		t.Fatal("unlabeled graph misreported")
	}
}

func TestSubgraph(t *testing.T) {
	g := squareWithDiagonal(t)
	sub, err := g.Subgraph([]uint32{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Induced triangle 0-1-2 (includes the diagonal 0-2).
	if sub.NumVertices() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("subgraph %d vertices, %d edges", sub.NumVertices(), sub.NumEdges())
	}
	if _, err := g.Subgraph([]uint32{0, 0}); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := g.Subgraph([]uint32{99}); err == nil {
		t.Error("out-of-range member accepted")
	}
}

func TestSubgraphKeepsLabels(t *testing.T) {
	g, err := FromEdges(3, [][2]uint32{{0, 1}, {1, 2}}, []int32{7, 8, 9})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := g.Subgraph([]uint32{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Label(0) != 9 || sub.Label(1) != 8 {
		t.Fatalf("labels not carried: %d %d", sub.Label(0), sub.Label(1))
	}
	if sub.NumEdges() != 1 || !sub.HasEdge(0, 1) {
		t.Fatal("edge not remapped")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	g, err := FromEdges(4, [][2]uint32{{0, 1}, {1, 2}, {2, 3}}, []int32{1, 2, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 4 || h.NumEdges() != 3 {
		t.Fatalf("round trip changed shape: %d vertices, %d edges", h.NumVertices(), h.NumEdges())
	}
	for v := uint32(0); v < 4; v++ {
		if g.Label(v) != h.Label(v) {
			t.Fatalf("label of %d changed", v)
		}
	}
}

func TestReadEdgeListFormats(t *testing.T) {
	input := `# a comment
3 5

5 7
7 5
3 5
`
	g, err := ReadEdgeList(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	// Sparse IDs 3,5,7 densified; the duplicate 3-5 and the reversed
	// orientation 7-5 are deduped, not double-counted.
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if err := g.VerifySorted(); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	bad := []string{
		"1 2 3\n",
		"a b\n",
		"v 1\n",
		"v x 2\n",
		"3 3\n", // self loops are rejected, not silently dropped
	}
	for _, s := range bad {
		if _, err := ReadEdgeList(strings.NewReader(s)); err == nil {
			t.Errorf("input %q: expected error", s)
		}
	}
	// The self-loop error carries the offending line number.
	_, err := ReadEdgeList(strings.NewReader("# header\n1 2\n4 4\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "self loop") {
		t.Errorf("self loop error = %v, want line 3 self loop", err)
	}
}

func TestVerifySorted(t *testing.T) {
	g, err := FromEdges(5, [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifySorted(); err != nil {
		t.Fatalf("valid graph failed verification: %v", err)
	}
	// Corrupt a copy of the adjacency in the ways VerifySorted guards
	// against and check each is caught.
	corrupt := func(mutate func(h *Graph)) error {
		h := &Graph{
			offsets: append([]uint64(nil), g.offsets...),
			adj:     append([]uint32(nil), g.adj...),
			nEdges:  g.nEdges,
		}
		mutate(h)
		return h.VerifySorted()
	}
	if err := corrupt(func(h *Graph) { h.adj[0], h.adj[1] = h.adj[1], h.adj[0] }); err == nil {
		t.Error("unsorted row not detected")
	}
	if err := corrupt(func(h *Graph) { h.adj[0] = 0 }); err == nil {
		t.Error("self loop not detected")
	}
	if err := corrupt(func(h *Graph) { h.adj[len(h.adj)-1] = 2 }); err == nil {
		t.Error("asymmetric edge not detected")
	}
	if err := corrupt(func(h *Graph) { h.nEdges++ }); err == nil {
		t.Error("edge-count mismatch not detected")
	}
}

func TestPartition(t *testing.T) {
	// A 10-vertex path partitions into contiguous chunks under BFS growth.
	edges := make([][2]uint32, 0, 9)
	for i := uint32(0); i < 9; i++ {
		edges = append(edges, [2]uint32{i, i + 1})
	}
	g := MustFromEdges(10, edges, nil)
	parts, err := Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("got %d parts", len(parts))
	}
	total := 0
	var edgeSum uint64
	for _, p := range parts {
		total += p.NumVertices()
		edgeSum += p.NumEdges()
	}
	if total != 10 {
		t.Fatalf("partition lost vertices: %d", total)
	}
	if edgeSum >= g.NumEdges() {
		t.Fatalf("partitioning a path must cut at least one edge: %d >= %d", edgeSum, g.NumEdges())
	}
	if _, err := Partition(g, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Partition(g, 11); err == nil {
		t.Error("k>n accepted")
	}
}

func TestPartitionCoversAllVerticesQuick(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		_ = seed
		n := 5 + r.Intn(40)
		var edges [][2]uint32
		for i := 0; i < n*2; i++ {
			u, v := uint32(r.Intn(n)), uint32(r.Intn(n))
			if u != v {
				edges = append(edges, [2]uint32{u, v})
			}
		}
		g, err := FromEdges(n, edges, nil)
		if err != nil {
			return false
		}
		k := 1 + r.Intn(4)
		if k > n {
			k = n
		}
		parts, err := Partition(g, k)
		if err != nil {
			return false
		}
		total := 0
		for _, p := range parts {
			total += p.NumVertices()
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	g, err := FromEdges(5, [][2]uint32{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}}, []int32{1, 1, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(g)
	if s.NumVertices != 5 || s.NumEdges != 5 {
		t.Fatalf("summary shape wrong: %+v", s)
	}
	if s.MaxDegree != 4 {
		t.Fatalf("MaxDegree = %d", s.MaxDegree)
	}
	if s.AvgDegree != 2 {
		t.Fatalf("AvgDegree = %v", s.AvgDegree)
	}
	if s.HighN < 1 {
		t.Fatal("high-degree portion empty")
	}
	if got := s.LabelFreq[2]; got < 0.59 || got > 0.61 {
		t.Fatalf("LabelFreq[2] = %v, want 0.6", got)
	}
	empty := Summarize(MustFromEdges(0, nil, nil))
	if empty.NumVertices != 0 {
		t.Fatal("empty graph summary wrong")
	}
}

// The graph is immutable, so its summary is computed once and shared by
// every handle that reaches it: the graph itself, its views, and the
// per-run attribution wrapper (a fresh one per query). The LabelFreq map
// identifies the computation.
func TestSummarizeOncePerGraph(t *testing.T) {
	g := randomGraph(t, 200, 8, 3, 5)
	c, err := Compress(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b Summary) bool {
		return reflect.ValueOf(a.LabelFreq).Pointer() == reflect.ValueOf(b.LabelFreq).Pointer()
	}
	first := Summarize(c)
	for name, a := range map[string]Adjacency{
		"graph":        c,
		"view":         c.View(),
		"wrapper":      WithDecodeAttribution(c, &DecodeCounters{}),
		"wrapper view": WithDecodeAttribution(c, &DecodeCounters{}).View(),
	} {
		if !same(first, Summarize(a)) {
			t.Errorf("compressed %s: summary recomputed", name)
		}
	}
	if !same(Summarize(g), Summarize(g.View())) {
		t.Error("plain graph: summary recomputed")
	}
	plain := Summarize(g)
	if first.HighN != plain.HighN || first.HighEdgeProb != plain.HighEdgeProb || first.MaxDegree != plain.MaxDegree {
		t.Errorf("tiers summarize differently: %+v vs %+v", first, plain)
	}
}
