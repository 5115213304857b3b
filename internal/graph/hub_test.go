package graph_test

import (
	"sync"
	"testing"

	"morphing/internal/dataset"
	"morphing/internal/graph"
)

// wheel returns a hub-and-spokes graph: vertex 0 connected to everyone,
// plus a rim path so low-degree vertices have degree > 1.
func wheel(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := uint32(1); v < uint32(n); v++ {
		b.AddEdge(0, v)
		if v+1 < uint32(n) {
			b.AddEdge(v, v+1)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// checkHubRows holds the index against the CSR: a bitmap row of ceil(n/64)
// words with exactly the row's bits for every vertex at or above the default
// threshold, nil below it, and HubIndexBytes what those rows add up to —
// nothing at all, row table included, when no vertex qualifies. It returns
// the number of hubs, -1 after reporting a mismatch.
func checkHubRows(t testing.TB, name string, g *graph.Graph) int {
	t.Helper()
	n := g.NumVertices()
	words, threshold, hubs := (n+63)/64, graph.DefaultHubThreshold(n), 0
	for v := uint32(0); int(v) < n; v++ {
		bits := g.HubBits(v)
		if g.Degree(v) < threshold {
			if bits != nil {
				t.Errorf("%s: vertex %d of degree %d < %d has a bitmap row", name, v, g.Degree(v), threshold)
				return -1
			}
			continue
		}
		hubs++
		if len(bits) != words {
			t.Errorf("%s: row of %d has %d words, want %d", name, v, len(bits), words)
			return -1
		}
		for u := uint32(0); int(u) < n; u++ {
			if got := bits[u>>6]&(1<<(u&63)) != 0; got != g.HasEdge(v, u) {
				t.Errorf("%s: bit {%d,%d} = %v, HasEdge = %v", name, v, u, got, g.HasEdge(v, u))
				return -1
			}
		}
	}
	want := 0
	if hubs > 0 {
		want = 4*n + 8*hubs*words
	}
	if got := g.HubIndexBytes(); got != want {
		t.Errorf("%s: %d hubs, index holds %d B, want %d", name, hubs, got, want)
		return -1
	}
	return hubs
}

func TestHubIndexMembership(t *testing.T) {
	g := wheel(200)
	if g.HubIndexBytes() != 0 {
		t.Fatal("index built before the first HubBits")
	}
	if hubs := checkHubRows(t, "wheel", g); hubs != 1 {
		t.Fatalf("%d hubs, want 1 (the center)", hubs)
	}
	if g.HubBits(0) == nil || g.HubBits(1) != nil {
		t.Fatal("the center must have a bitmap row and a rim vertex none")
	}
}

func TestHubIndexDefaultThreshold(t *testing.T) {
	if got := graph.DefaultHubThreshold(100); got != 64 {
		t.Fatalf("DefaultHubThreshold(100) = %d, want the 64 floor", got)
	}
	if got := graph.DefaultHubThreshold(64 * 100); got != 200 {
		t.Fatalf("DefaultHubThreshold(6400) = %d, want 200", got)
	}
	if hubs := checkHubRows(t, "wheel", wheel(5000)); hubs != 1 { // only the center clears n/32 = 156
		t.Fatalf("default threshold indexed %d vertices, want 1", hubs)
	}
}

// Every vertex of a circulant graph of degree 70 on 130 vertices is a hub.
func TestHubIndexEveryVertex(t *testing.T) {
	const n = 130
	b := graph.NewBuilder(n)
	for v := uint32(0); v < n; v++ {
		for d := uint32(1); d <= 35; d++ {
			b.AddEdge(v, (v+d)%n)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if hubs := checkHubRows(t, "circulant", g); hubs != n {
		t.Fatalf("indexed %d, want all %d", hubs, n)
	}
}

// TestHubIndexCostsNothingWithoutHubs: the index builds itself on every
// plain graph, so a graph with no vertex at the threshold — the suites'
// ER(45), an induced shard — must come out of the build holding no memory,
// row table included; every recipe at about a thousand vertices has hubs and
// holds exactly their rows.
func TestHubIndexCostsNothingWithoutHubs(t *testing.T) {
	er, err := dataset.ErdosRenyi(45, 7, 0, 21)
	if err != nil {
		t.Fatal(err)
	}
	if hubs := checkHubRows(t, "er45", er); hubs != 0 {
		t.Fatalf("ER(45) has %d hubs", hubs)
	}
	for _, r := range dataset.All() {
		g, err := r.Scaled(1200 / float64(r.Vertices)).Generate()
		if err != nil {
			t.Fatal(err)
		}
		if hubs := checkHubRows(t, r.Name, g); hubs == 0 {
			t.Errorf("%s: no hubs at 1,200 vertices", r.Name)
		}
	}
}

// TestHubRowsBuildOnce races goroutines to the first HubBits of a fresh
// graph (run under -race): each must read a fully built row, and the same
// one.
func TestHubRowsBuildOnce(t *testing.T) {
	g := wheel(300)
	var wg sync.WaitGroup
	first := make([][]uint64, 8)
	for i := range first {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first[i] = g.HubBits(0)
			checkHubRows(t, "racing", g)
		}()
	}
	wg.Wait()
	for i, row := range first {
		if len(row) == 0 || &row[0] != &first[0][0] {
			t.Fatalf("goroutine %d read a row of another index than goroutine 0", i)
		}
	}
}
