package enginetest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// Differential fuzzing across storage tiers: the same logical graph
// materialized as plain CSR, delta-varint compressed, and mmap-backed
// (both tiers) must produce byte-identical query results through the
// full morphing pipeline — the merged trie, the loop of one-leaf tries,
// and either per shard (runnerRoutes), labeled and unlabeled. Counting is exact,
// so any divergence is a decoder, format, or lifetime bug, never noise.

// tierQueries is the differential workload: enough shared structure to
// force the trie route, vertex-induced members to force conversion,
// 5-vertex patterns so three and four bound rows are live at once, and a
// labeled pattern when the graph is labeled.
func tierQueries(labeled bool) []*pattern.Pattern {
	qs := []*pattern.Pattern{
		pattern.Triangle(),
		pattern.FourCycle().AsVertexInduced(),
		pattern.FourStar().AsVertexInduced(),
		pattern.TailedTriangle(),
		pattern.House(),
		pattern.Cycle(5).AsVertexInduced(),
	}
	if labeled {
		shape := pattern.Triangle()
		qs = append(qs, pattern.MustNew(shape.N(), shape.Edges(),
			pattern.WithLabels([]int32{0, 1, 0})))
	}
	return qs
}

// tierCounts runs the queries through one tier on one route.
func tierCounts(t *testing.T, a graph.Adjacency, qs []*pattern.Pattern, e engine.Engine, oneLeaf bool, shards int) []uint64 {
	t.Helper()
	counts, err := routeCounts(context.Background(), e, a, qs, oneLeaf, shards)
	if err != nil {
		t.Fatalf("counts on %T (%s, one-leaf %v, %d shards): %v", a, e.Name(), oneLeaf, shards, err)
	}
	return counts
}

func checkTierDifferential(t *testing.T, seed int64, n int, avgDeg float64, labels, block int) {
	t.Helper()
	g, err := dataset.ErdosRenyi(n, avgDeg, labels, seed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := graph.Compress(g, block)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("compress(seed=%d): %v", seed, err)
	}

	dir := t.TempDir()
	openTier := func(name string, write func(*os.File) error) *graph.Handle {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		h, err := graph.Open(path, graph.OpenOptions{Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	hc := openTier("c.mcsr", func(f *os.File) error { return c.WriteBinary2(f) })
	defer hc.Close()
	hp := openTier("p.mcsr", func(f *os.File) error { return g.WriteBinary2(f) })
	defer hp.Close()

	tiers := []struct {
		name string
		adj  graph.Adjacency
	}{
		{"plain", g},
		{"compressed", c},
		{"mmap-compressed", hc.Graph()},
		{"mmap-plain", hp.Graph()},
	}
	qs := tierQueries(labels > 0)
	for _, route := range runnerRoutes {
		e := peregrine.New(2)
		want := tierCounts(t, tiers[0].adj, qs, e, route.oneLeaf, route.shards)
		for _, tier := range tiers[1:] {
			got := tierCounts(t, tier.adj, qs, e, route.oneLeaf, route.shards)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed=%d n=%d deg=%g labels=%d block=%d: %s/%s query %v: %d, plain says %d",
						seed, n, avgDeg, labels, block, tier.name, route.name, qs[i], got[i], want[i])
				}
			}
		}
	}
}

// TestTierDifferential runs the fuzz body on a fixed grid so plain
// `go test` exercises every tier/route combination deterministically.
func TestTierDifferential(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		n      int
		deg    float64
		labels int
		block  int
	}{
		{1, 40, 6, 0, 8},
		{2, 40, 6, 3, 4},
		{3, 70, 10, 0, 1}, // block size 1: every element its own block
		{4, 25, 12, 2, 16},
		{5, 90, 5, 0, 128}, // single-block rows
		{6, 50, 8, 0, 2},   // block size 2: a head and one gap per block
		{7, 35, 9, 3, 2},
	} {
		t.Run(fmt.Sprintf("s%d_n%d_l%d_b%d", tc.seed, tc.n, tc.labels, tc.block),
			func(t *testing.T) {
				checkTierDifferential(t, tc.seed, tc.n, tc.deg, tc.labels, tc.block)
			})
	}
}

// FuzzTierCounts lets the fuzzer wander the graph/block parameter space.
func FuzzTierCounts(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(6), uint8(0), uint8(8))
	f.Add(int64(7), uint8(60), uint8(9), uint8(4), uint8(3))
	f.Add(int64(9), uint8(30), uint8(14), uint8(2), uint8(1))
	f.Add(int64(11), uint8(45), uint8(8), uint8(0), uint8(33)) // block size 2
	f.Add(int64(13), uint8(25), uint8(10), uint8(3), uint8(1)) // block size 2, labeled
	f.Fuzz(func(t *testing.T, seed int64, n, deg, labels, block uint8) {
		nv := 10 + int(n)%100
		d := float64(1 + int(deg)%12)
		l := int(labels) % 5
		b := 1 + int(block)%32
		checkTierDifferential(t, seed, nv, d, l, b)
	})
}
