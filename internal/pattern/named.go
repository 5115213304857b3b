package pattern

import "fmt"

// This file provides the named patterns from Figure 1 of the paper, the
// parametric families (paths, stars, cycles, cliques), and the evaluation
// pattern set of Figure 11a. All constructors return edge-induced patterns;
// call AsVertexInduced for the anti-edge variant.

// Edge returns the single-edge pattern (2 vertices).
func Edge() *Pattern { return MustNew(2, [][2]int{{0, 1}}) }

// Wedge returns the 3-vertex path (two edges sharing a middle vertex).
func Wedge() *Pattern { return Path(3) }

// Triangle returns the 3-clique.
func Triangle() *Pattern { return Clique(3) }

// FourStar returns the star on 4 vertices (vertex 0 is the center).
func FourStar() *Pattern { return Star(4) }

// TailedTriangle returns a triangle {0,1,2} with a pendant vertex 3
// attached to vertex 0.
func TailedTriangle() *Pattern {
	return MustNew(4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 3}})
}

// FourCycle returns the cycle 0-1-2-3-0.
func FourCycle() *Pattern { return Cycle(4) }

// ChordalFourCycle returns the 4-cycle with one chord (a "diamond"):
// cycle 0-1-2-3-0 plus the chord {0,2}.
func ChordalFourCycle() *Pattern {
	return MustNew(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
}

// FourClique returns the 4-clique.
func FourClique() *Pattern { return Clique(4) }

// FiveClique returns the 5-clique.
func FiveClique() *Pattern { return Clique(5) }

// House returns the 5-cycle 0-1-2-3-4-0 with the chord {1,4} ("house"
// shape: square with a roof).
func House() *Pattern {
	return MustNew(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 4}})
}

// Bowtie returns two triangles sharing vertex 0.
func Bowtie() *Pattern {
	return MustNew(5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {0, 4}, {3, 4}})
}

// FiveCliqueMinusEdge returns K5 without the edge {3,4}.
func FiveCliqueMinusEdge() *Pattern {
	edges := make([][2]int, 0, 9)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			if u == 3 && v == 4 {
				continue
			}
			edges = append(edges, [2]int{u, v})
		}
	}
	return MustNew(5, edges)
}

// DoubleDiamond returns the 7-vertex pattern made of two 4-cliques sharing
// vertex 0 (our stand-in for the paper's large pattern p9; see DESIGN.md).
func DoubleDiamond() *Pattern {
	return MustNew(7, [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, // clique {0,1,2,3}
		{0, 4}, {0, 5}, {0, 6}, {4, 5}, {4, 6}, {5, 6}, // clique {0,4,5,6}
	})
}

// TriangleChain returns the 7-vertex chain of three triangles sharing
// endpoints: triangles {0,1,2}, {2,3,4}, {4,5,6}. Its sparse structure
// gives it an unusually large superpattern lattice (210 structures),
// which makes it a stress test for S-DAG construction and conversion.
func TriangleChain() *Pattern {
	return MustNew(7, [][2]int{
		{0, 1}, {0, 2}, {1, 2},
		{2, 3}, {2, 4}, {3, 4},
		{4, 5}, {4, 6}, {5, 6},
	})
}

// PenTriClique returns the 7-vertex pattern made of a 5-clique {0..4}
// plus a pendant triangle {0,5,6} hanging off vertex 0 (our stand-in for
// the paper's large pattern p10; see DESIGN.md).
func PenTriClique() *Pattern {
	return MustNew(7, [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {0, 4},
		{1, 2}, {1, 3}, {1, 4},
		{2, 3}, {2, 4}, {3, 4},
		{0, 5}, {0, 6}, {5, 6},
	})
}

// Path returns the path on k vertices 0-1-...-(k-1).
func Path(k int) *Pattern {
	edges := make([][2]int, 0, k-1)
	for i := 0; i+1 < k; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return MustNew(k, edges)
}

// Cycle returns the cycle on k vertices (k >= 3).
func Cycle(k int) *Pattern {
	if k < 3 {
		panic(fmt.Sprintf("pattern: cycle needs at least 3 vertices, got %d", k))
	}
	edges := make([][2]int, 0, k)
	for i := 0; i < k; i++ {
		edges = append(edges, [2]int{i, (i + 1) % k})
	}
	return MustNew(k, edges)
}

// Star returns the star on k vertices with vertex 0 as the center.
func Star(k int) *Pattern {
	edges := make([][2]int, 0, k-1)
	for i := 1; i < k; i++ {
		edges = append(edges, [2]int{0, i})
	}
	return MustNew(k, edges)
}

// Clique returns the complete graph on k vertices.
func Clique(k int) *Pattern {
	edges := make([][2]int, 0, k*(k-1)/2)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	return MustNew(k, edges)
}

// Named is a pattern with the short name used in the paper's figures.
type Named struct {
	Name    string
	Pattern *Pattern
}

// Fig1Patterns returns the commonly named patterns of Figure 1.
func Fig1Patterns() []Named {
	return []Named{
		{"triangle", Triangle()},
		{"4-star", FourStar()},
		{"tailed-triangle", TailedTriangle()},
		{"4-cycle", FourCycle()},
		{"chordal-4-cycle", ChordalFourCycle()},
		{"4-clique", FourClique()},
	}
}

// Fig11Patterns returns the evaluation pattern set standing in for the
// paper's p1..p10 (Figure 11a); see DESIGN.md for the mapping rationale.
// Patterns are returned edge-induced; the paper's pV_i are the
// vertex-induced variants.
func Fig11Patterns() []Named {
	return []Named{
		{"p1", TailedTriangle()},
		{"p2", ChordalFourCycle()},
		{"p3", FourClique()},
		{"p4", Cycle(5)},
		{"p5", House()},
		{"p6", Bowtie()},
		{"p7", FiveCliqueMinusEdge()},
		{"p8", FiveClique()},
		{"p9", DoubleDiamond()},
		{"p10", PenTriClique()},
	}
}

// named is ByName's table, built once. Lookups share its patterns: a
// *Pattern never changes after construction (every method that derives
// one copies the receiver first).
var named = func() map[string]*Pattern {
	m := map[string]*Pattern{}
	for _, np := range append(Fig1Patterns(), Fig11Patterns()...) {
		m[np.Name] = np.Pattern
	}
	return m
}()

// ByName returns the Figure 1 / Figure 11a pattern with the given name, or
// an error for a name that is neither.
func ByName(name string) (*Pattern, error) {
	if p := named[name]; p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("pattern: unknown named pattern %q", name)
}
