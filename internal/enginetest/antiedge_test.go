package enginetest

import (
	"context"
	"errors"
	"sync"
	"testing"

	"morphing/internal/autozero"
	"morphing/internal/bigjoin"
	"morphing/internal/canon"
	"morphing/internal/core"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/graphpi"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/refmatch"
)

// antiPatterns are explicit-anti-edge queries (Peregrine's general
// anti-edge feature): shapes between the edge- and vertex-induced
// variants.
func antiPatterns(t *testing.T) []*pattern.Pattern {
	t.Helper()
	mk := func(n int, edges, anti [][2]int) *pattern.Pattern {
		p, err := pattern.New(n, edges, pattern.WithAntiEdges(anti))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return []*pattern.Pattern{
		// 4-cycle with one forbidden diagonal.
		mk(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, [][2]int{{0, 2}}),
		// Tailed triangle whose tail must not touch the far corner.
		mk(4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 3}}, [][2]int{{1, 3}}),
		// Wedge with forbidden closure (open wedge / "anti-triangle").
		mk(3, [][2]int{{0, 1}, {1, 2}}, [][2]int{{0, 2}}),
		// 4-star with exactly one forbidden leaf pair.
		mk(4, [][2]int{{0, 1}, {0, 2}, {0, 3}}, [][2]int{{1, 2}}),
	}
}

func TestAntiEdgePatternsOnNativeEngines(t *testing.T) {
	forEachSuite(t, 63, 0, func(t *testing.T, g graph.Adjacency, plain *graph.Graph) {
		for _, p := range antiPatterns(t) {
			want := refmatch.Count(plain, p)
			for _, e := range []engine.Engine{peregrine.New(3), autozero.New(3)} {
				got, _, err := e.CountCtx(context.Background(), g, p)
				if err != nil {
					t.Fatalf("%s: %v", e.Name(), err)
				}
				if got != want {
					t.Errorf("%s pattern=%v: count %d, oracle %d", e.Name(), p, got, want)
				}
			}
		}
	})
}

func TestAntiEdgeCountsRelateToVariants(t *testing.T) {
	// Anti-edge patterns count constraint placements: every vertex-induced
	// match admits at least one placement of the anti subset, so
	// count(p_anti) >= count(p_V). (No upper relation to count(p_E) holds:
	// a subgraph with several qualifying placements yields several
	// distinct anti-matches, e.g. a fully non-adjacent star has three.)
	forEachSuite(t, 64, 0, func(t *testing.T, g graph.Adjacency, plain *graph.Graph) {
		eng := peregrine.New(2)
		for _, p := range antiPatterns(t) {
			cAnti, _, err := eng.CountCtx(context.Background(), g, p)
			if err != nil {
				t.Fatal(err)
			}
			cV, _, err := eng.CountCtx(context.Background(), g, p.AsVertexInduced())
			if err != nil {
				t.Fatal(err)
			}
			if cAnti < cV {
				t.Errorf("pattern %v: anti count %d below vertex-induced %d", p, cAnti, cV)
			}
		}
	})
}

func TestFullAntiSetEqualsVertexInduced(t *testing.T) {
	// Declaring every non-adjacent pair as an anti-edge is semantically
	// the vertex-induced variant: the counts must coincide exactly.
	forEachSuite(t, 67, 0, func(t *testing.T, g graph.Adjacency, plain *graph.Graph) {
		eng := peregrine.New(2)
		for _, base := range []*pattern.Pattern{
			pattern.Wedge(), pattern.FourCycle(), pattern.TailedTriangle(), pattern.FourStar(),
		} {
			full, err := pattern.New(base.N(), base.Edges(), pattern.WithAntiEdges(base.NonEdges()))
			if err != nil {
				t.Fatal(err)
			}
			cFull, _, err := eng.CountCtx(context.Background(), g, full)
			if err != nil {
				t.Fatal(err)
			}
			cV, _, err := eng.CountCtx(context.Background(), g, base.AsVertexInduced())
			if err != nil {
				t.Fatal(err)
			}
			if cFull != cV {
				t.Errorf("pattern %v: full anti set count %d != vertex-induced %d", base, cFull, cV)
			}
		}
	})
}

func TestAntiEdgeRejectedByEdgeOnlyEngines(t *testing.T) {
	forEachSuite(t, 65, 0, func(t *testing.T, g graph.Adjacency, plain *graph.Graph) {
		p := antiPatterns(t)[0]
		for _, e := range []engine.Engine{graphpi.New(1), bigjoin.New(1)} {
			if _, _, err := e.CountCtx(context.Background(), g, p); !errors.Is(err, engine.ErrInducedUnsupported) {
				t.Errorf("%s: got %v, want ErrInducedUnsupported", e.Name(), err)
			}
		}
	})
}

func TestAntiEdgeRejectedByMorphingAlgebra(t *testing.T) {
	if _, err := core.BuildSDAG(antiPatterns(t)[:1]); err == nil {
		t.Fatal("explicit-anti query accepted by the S-DAG")
	}
}

func TestAntiEdgeCanonicalIdentity(t *testing.T) {
	// Renumbering must preserve identity; different anti sets must not
	// collide with each other or with the plain base pattern.
	p := antiPatterns(t)[0] // C4 + anti {0,2}
	perm, err := p.Permute([]int{2, 3, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if canon.StructureID(p) != canon.StructureID(perm) {
		t.Fatal("renumbering changed the structure ID")
	}
	plain := pattern.FourCycle()
	if canon.StructureID(p) == canon.StructureID(plain) {
		t.Fatal("explicit-anti pattern collides with its base structure")
	}
	// {0,2} and {1,3} anti sets on C4 are isomorphic (rotate by one), so
	// they must collide — the ID is a structure ID.
	other := pattern.MustNew(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
		pattern.WithAntiEdges([][2]int{{1, 3}}))
	if canon.StructureID(p) != canon.StructureID(other) {
		t.Fatal("isomorphic anti-edge placements got distinct IDs")
	}
}

func TestAntiEdgeAutomorphisms(t *testing.T) {
	// C4 has |Aut| = 8; forbidding one diagonal keeps only the symmetries
	// fixing that diagonal as a pair: |Aut| = 4.
	p := antiPatterns(t)[0]
	if got := len(canon.Automorphisms(p)); got != 4 {
		t.Fatalf("|Aut| = %d, want 4", got)
	}
	// The open wedge keeps the wedge's swap symmetry.
	wedgeAnti := antiPatterns(t)[2]
	if got := len(canon.Automorphisms(wedgeAnti)); got != 2 {
		t.Fatalf("open wedge |Aut| = %d, want 2", got)
	}
}

func TestAntiEdgeStreamsMatchOracle(t *testing.T) {
	forEachSuite(t, 66, 0, func(t *testing.T, g graph.Adjacency, plain *graph.Graph) {
		p := antiPatterns(t)[1]
		auts := canon.Automorphisms(p)
		want := refmatch.Matches(plain, p)
		got := map[string]bool{}
		var mu sync.Mutex
		_, err := peregrine.New(3).MatchCtx(context.Background(), g, p, func(_ int, m []uint32) {
			c := canon.CanonicalMatch(p, m, auts)
			k := string(keyOf(c))
			mu.Lock()
			got[k] = true
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("streamed %d unique matches, oracle %d", len(got), len(want))
		}
		for _, m := range want {
			if !got[string(keyOf(m))] {
				t.Errorf("missing oracle match %v", m)
			}
		}
	})
}

func keyOf(m []uint32) []byte {
	b := make([]byte, 0, 4*len(m))
	for _, v := range m {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return b
}
