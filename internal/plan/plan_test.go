package plan

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"morphing/internal/canon"
	"morphing/internal/pattern"
)

func TestDefaultOrderIsConnectedPermutation(t *testing.T) {
	for _, np := range pattern.Fig11Patterns() {
		p := np.Pattern
		order := DefaultOrder(p)
		if _, err := BuildWithOrder(p, order); err != nil {
			t.Errorf("%s: default order rejected: %v", np.Name, err)
		}
	}
}

// TestDefaultOrderTieBreak pins the tie-break rule on equal-degree
// vertices: more back edges first, then higher degree, then the lowest
// pattern index. Trie merging requires this to be stable across runs and
// immune to packed-key collisions between the criteria.
func TestDefaultOrderTieBreak(t *testing.T) {
	cases := []struct {
		name string
		p    *pattern.Pattern
		want []int
	}{
		// 4-cycle: every vertex has degree 2, so after [0, 1] both 2 and
		// 3 tie on one back edge and equal degree — the lowest index wins.
		{"4-cycle", pattern.FourCycle(), []int{0, 1, 2, 3}},
		// 4-star: the hub leads, the leaves (all degree 1, one back edge
		// each) follow in index order.
		{"4-star", pattern.FourStar(), []int{0, 1, 2, 3}},
		// triangle: fully symmetric, index order.
		{"triangle", pattern.Triangle(), []int{0, 1, 2}},
		// tailed triangle: hub 0 (degree 3), then 1 and 2 (two back
		// edges once 0 and 1 are placed), tail 3 last.
		{"tailed-triangle", pattern.TailedTriangle(), []int{0, 1, 2, 3}},
	}
	for _, tc := range cases {
		for i := 0; i < 3; i++ { // identical across repeated invocations
			if got := DefaultOrder(tc.p); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("%s: DefaultOrder = %v, want %v", tc.name, got, tc.want)
			}
		}
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	p := pattern.FourCycle()
	if _, err := BuildWithOrder(p, []int{0, 1, 2}); err == nil {
		t.Error("short order accepted")
	}
	if _, err := BuildWithOrder(p, []int{0, 0, 1, 2}); err == nil {
		t.Error("non-permutation accepted")
	}
	if _, err := BuildWithOrder(p, []int{0, 2, 1, 3}); err == nil {
		t.Error("disconnected order accepted (0 and 2 are not adjacent in C4)")
	}
	disconnected := pattern.MustNew(4, [][2]int{{0, 1}, {2, 3}})
	if _, err := Build(disconnected); err == nil {
		t.Error("disconnected pattern accepted")
	}
}

func TestConnectAndDisconnectPartitionBackEdges(t *testing.T) {
	// Vertex-induced 4-cycle: every earlier level is either intersected or
	// subtracted; edge-induced: never subtracted.
	for _, iv := range []pattern.Induced{pattern.EdgeInduced, pattern.VertexInduced} {
		p := pattern.FourCycle().Variant(iv)
		pl, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < p.N(); i++ {
			got := len(pl.Connect[i]) + len(pl.Disconnect[i])
			if iv == pattern.VertexInduced && got != i {
				t.Errorf("vertex-induced level %d covers %d of %d back levels", i, got, i)
			}
			if iv == pattern.EdgeInduced && len(pl.Disconnect[i]) != 0 {
				t.Errorf("edge-induced plan has Disconnect at level %d", i)
			}
			if len(pl.Connect[i]) == 0 {
				t.Errorf("level %d has no connection", i)
			}
		}
	}
}

func TestSymmetryConditionCounts(t *testing.T) {
	// A full condition chain on a clique yields a total order: k-1 + k-2
	// + ... conditions collapse to C(k,2) pairs via orbits of decreasing
	// size. Verify the counting property instead of exact pairs: the
	// number of automorphisms satisfying all conditions must be 1.
	for _, np := range []pattern.Named{
		{Name: "triangle", Pattern: pattern.Triangle()},
		{Name: "4-star", Pattern: pattern.FourStar()},
		{Name: "4-cycle", Pattern: pattern.FourCycle()},
		{Name: "4-clique", Pattern: pattern.FourClique()},
		{Name: "tailed-triangle", Pattern: pattern.TailedTriangle()},
		{Name: "bowtie", Pattern: pattern.Bowtie()},
		{Name: "house", Pattern: pattern.House()},
	} {
		p := np.Pattern
		conds := SymmetryConditions(p)
		auts := canon.Automorphisms(p)
		// Apply conditions to the "embedding" that maps vertex i to value
		// a[i]: exactly one automorphic reordering of any injective tuple
		// must satisfy all conditions.
		tuple := make([]int, p.N())
		for i := range tuple {
			tuple[i] = i * 10
		}
		satisfied := 0
		for _, a := range auts {
			ok := true
			for _, c := range conds {
				if tuple[a[c[0]]] >= tuple[a[c[1]]] {
					ok = false
					break
				}
			}
			if ok {
				satisfied++
			}
		}
		if satisfied != 1 {
			t.Errorf("%s: %d automorphic embeddings satisfy conditions, want exactly 1", np.Name, satisfied)
		}
	}
}

func TestAsymmetricPatternHasNoConditions(t *testing.T) {
	// Tailed triangle with distinct labels everywhere is asymmetric.
	p := pattern.MustNew(4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 3}},
		pattern.WithLabels([]int32{1, 2, 3, 4}))
	if conds := SymmetryConditions(p); len(conds) != 0 {
		t.Fatalf("asymmetric pattern got conditions %v", conds)
	}
}

func TestConditionsEnforcedOnceEach(t *testing.T) {
	p := pattern.FourClique()
	pl, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	enforced := 0
	for i := range pl.Greater {
		enforced += len(pl.Greater[i]) + len(pl.Smaller[i])
	}
	if enforced != len(pl.Conditions) {
		t.Fatalf("%d enforcement points for %d conditions", enforced, len(pl.Conditions))
	}
}

func TestConnectedOrders(t *testing.T) {
	// Triangle: all 3! = 6 orders are connected.
	got := ConnectedOrders(pattern.Triangle(), 0)
	if len(got) != 6 {
		t.Fatalf("triangle connected orders = %d, want 6", len(got))
	}
	// 3-path 0-1-2: orders starting 0,2 or 2,0 are disconnected; valid:
	// [0 1 2], [1 0 2], [1 2 0], [2 1 0] = 4.
	got = ConnectedOrders(pattern.Path(3), 0)
	if len(got) != 4 {
		t.Fatalf("path connected orders = %d, want 4", len(got))
	}
	for _, o := range got {
		if _, err := BuildWithOrder(pattern.Path(3), o); err != nil {
			t.Fatalf("enumerated order %v rejected: %v", o, err)
		}
	}
	// Cap respected.
	if got := ConnectedOrders(pattern.FiveClique(), 7); len(got) != 7 {
		t.Fatalf("cap ignored: %d orders", len(got))
	}
}

// TestConnectedOrdersCapReachesEveryStart: a cap below the number of
// connected orders is spread over the start vertices. A 6-star centred at
// vertex 5 has 24 orders from each leaf and 120 from the hub; a 6-clique
// has 120 from every vertex. Capped at 120, each start gets 20.
func TestConnectedOrdersCapReachesEveryStart(t *testing.T) {
	star := pattern.MustNew(6, [][2]int{{0, 5}, {1, 5}, {2, 5}, {3, 5}, {4, 5}})
	for _, p := range []*pattern.Pattern{star, pattern.Clique(6)} {
		starts := make([]int, p.N())
		for _, o := range ConnectedOrders(p, 120) {
			if _, err := BuildWithOrder(p, o); err != nil {
				t.Fatalf("%v: enumerated order %v rejected: %v", p, o, err)
			}
			starts[o[0]]++
		}
		if want := []int{20, 20, 20, 20, 20, 20}; !reflect.DeepEqual(starts, want) {
			t.Errorf("%v: orders per start vertex %v, want %v", p, starts, want)
		}
	}
	if n := len(ConnectedOrders(star, 0)); n != 5*24+120 {
		t.Errorf("6-star: %d connected orders, want 240", n)
	}
}

func TestPlanOrderIsCopied(t *testing.T) {
	p := pattern.Triangle()
	order := []int{0, 1, 2}
	pl, err := BuildWithOrder(p, order)
	if err != nil {
		t.Fatal(err)
	}
	order[0] = 99
	if !reflect.DeepEqual(pl.Order, []int{0, 1, 2}) {
		t.Fatal("plan aliases caller's order slice")
	}
}

// TestBoundSkipsOtherLabels: in a labeled plan a bound depth whose
// concrete label differs from the level's is absent from the level's
// Class.Bound — its vertex is never in the level's labeled set — and
// every other bound depth keeps the place and kind (always or probe) it
// has in the unlabeled plan of the same shape and order. Over every
// connected pattern of 3 and 4 vertices, both induced semantics, every
// connected order and random labelings with a wildcard now and then.
func TestBoundSkipsOtherLabels(t *testing.T) {
	// The example: the path A–B–A–B bound in order. Its last level (B) finds
	// the B bound at depth 1 inside its set, never the A at depth 0.
	abab := pattern.MustNew(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, pattern.WithLabels([]int32{0, 1, 0, 1}))
	pl, err := BuildWithOrder(abab, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Class[3].Bound; !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("A-B-A-B, last level: Bound %v, want [1]", got)
	}

	r := rand.New(rand.NewSource(3))
	keep := func(p *pattern.Pattern, order, from []int, i int) []int {
		out := []int{}
		for _, a := range from {
			la, li := p.Label(order[a]), p.Label(order[i])
			if la == pattern.Unlabeled || li == pattern.Unlabeled || la == li {
				out = append(out, a)
			}
		}
		return out
	}
	for k := 3; k <= 4; k++ {
		shapes, err := canon.AllConnectedPatterns(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range shapes {
			for _, iv := range []pattern.Induced{pattern.EdgeInduced, pattern.VertexInduced} {
				bare := shape.Variant(iv)
				for _, order := range ConnectedOrders(bare, 24) {
					labels := make([]int32, k)
					for v := range labels {
						if labels[v] = int32(r.Intn(3)); labels[v] == 2 {
							labels[v] = pattern.Unlabeled
						}
					}
					labeled := pattern.MustNew(k, shape.Edges(), pattern.WithLabels(labels)).Variant(iv)
					want, err := BuildWithOrder(bare, order)
					if err != nil {
						t.Fatal(err)
					}
					got, err := BuildWithOrder(labeled, order)
					if err != nil {
						t.Fatal(err)
					}
					for i := range order {
						g, w := &got.Class[i], &want.Class[i]
						if a, c := keep(labeled, order, w.Always(), i), keep(labeled, order, w.Check(), i); !reflect.DeepEqual(append(slices.Clone(g.Always()), g.Check()...), append(a, c...)) || g.NAlways != len(a) {
							t.Errorf("%v order %v level %d: Bound %v (%d always), want %v then %v", labeled, order, i, g.Bound, g.NAlways, a, c)
						}
					}
				}
			}
		}
	}
}
