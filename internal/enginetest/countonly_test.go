package enginetest

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"morphing/internal/canon"
	"morphing/internal/core"
	"morphing/internal/dataset"
	"morphing/internal/graph"
	"morphing/internal/graphpi"
	"morphing/internal/pattern"
	"morphing/internal/refmatch"
)

// Count-only leaves take from the pattern what it decides about the bound
// vertices they correct for, and a leaf whose candidate set is one whole
// row counts that row's length without fetching it (DESIGN §12). These
// tests hold both to the brute-force oracle on every tier that serves rows
// its own way, and hold the degree leaf to what it saves.

// mmapTier writes c to a file under t's temporary directory and maps it.
func mmapTier(t *testing.T, c *graph.CompressedGraph) graph.Adjacency {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.mcsr")
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
	h, err := graph.Open(path, graph.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	if !h.Mapped() {
		t.Skip("no mmap on this platform")
	}
	return h.Graph()
}

// TestCountOnlyLeavesMatchOracle: every connected 4- and 5-vertex pattern,
// in each variant an engine supports, counted by all four engines on the
// plain, compressed-heap and mmap tiers, equals refmatch's count. On the
// labeled graph the patterns carry labels on most of their vertices, so a
// leaf whose row holds vertices of every label must not count its degree.
func TestCountOnlyLeavesMatchOracle(t *testing.T) {
	for _, labels := range []int{0, 3} {
		plain, err := dataset.ErdosRenyi(40, 7, labels, 27)
		if err != nil {
			t.Fatal(err)
		}
		c, err := graph.Compress(plain, 8)
		if err != nil {
			t.Fatal(err)
		}
		tiers := []struct {
			name string
			g    graph.Adjacency
		}{{"plain", plain}, {"compressed", c}, {"mmap", mmapTier(t, c)}}
		for k := 4; k <= 5; k++ {
			shapes, err := canon.AllConnectedPatterns(k)
			if err != nil {
				t.Fatal(err)
			}
			for _, shape := range shapes {
				if labels > 0 {
					ls := make([]int32, k)
					for i := range ls {
						ls[i] = int32((i+1)%3) - 1 // 0, 1, unlabeled, 0, 1
					}
					shape = pattern.MustNew(k, shape.Edges(), pattern.WithLabels(ls))
				}
				for _, iv := range []pattern.Induced{pattern.EdgeInduced, pattern.VertexInduced} {
					p := shape.Variant(iv)
					want := refmatch.Count(plain, p)
					for _, e := range allEngines() {
						if !e.SupportsInduced(iv) && !p.IsClique() {
							continue
						}
						for _, tier := range tiers {
							got, _, err := e.CountCtx(context.Background(), tier.g, p)
							if err != nil {
								t.Fatalf("%s %s %v: %v", e.Name(), tier.name, p, err)
							}
							if got != want {
								t.Errorf("labels=%d %s %s %v: count %d, oracle %d", labels, e.Name(), tier.name, p, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestDegreeLeafDecodesNoRow: GraphPi binds the edge-induced tailed
// triangle's pendant vertex below the deepest triangle level, a degree
// leaf. Counting it on the compressed heap tier fetches the rows of depths
// 0 and 1 at most once per binding and never a row of depth 2, which a
// leaf that decoded v2's row for its length did once per triangle.
func TestDegreeLeafDecodesNoRow(t *testing.T) {
	g, err := dataset.MAG().Scaled(0.003).Generate()
	if err != nil {
		t.Fatal(err)
	}
	c, err := graph.Compress(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	qs := []*pattern.Pattern{pattern.TailedTriangle()}
	run := &core.Runner{Engine: graphpi.New(2)}
	want, _, err := run.CountsCtx(context.Background(), g, qs)
	if err != nil {
		t.Fatal(err)
	}
	got, rs, err := run.CountsCtx(context.Background(), c, qs)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Fatalf("compressed tier counted %d, plain %d", got[0], want[0])
	}
	if rs.Decode == nil || rs.Mining == nil || len(rs.Mining.Levels) != 4 {
		t.Fatalf("no decode attribution or level table: %+v", rs)
	}
	lv := rs.Mining.Levels
	if bound := lv[0].Extended + lv[1].Extended; rs.Decode.Rows > bound {
		t.Errorf("decoded %d rows, above the %d bindings of depths 0 and 1 (%d triangles bound at depth 2)", rs.Decode.Rows, bound, lv[2].Extended)
	}
}
