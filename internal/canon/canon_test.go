package canon

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"morphing/internal/pattern"
)

func TestAutomorphismCounts(t *testing.T) {
	cases := []struct {
		name string
		p    *pattern.Pattern
		want int
	}{
		{"edge", pattern.Edge(), 2},
		{"wedge", pattern.Wedge(), 2},
		{"triangle", pattern.Triangle(), 6},
		{"4-path", pattern.Path(4), 2},
		{"4-star", pattern.FourStar(), 6},
		{"4-cycle", pattern.FourCycle(), 8},
		{"tailed-triangle", pattern.TailedTriangle(), 2},
		{"chordal-4-cycle", pattern.ChordalFourCycle(), 4},
		{"4-clique", pattern.FourClique(), 24},
		{"5-clique", pattern.FiveClique(), 120},
		{"bowtie", pattern.Bowtie(), 8},
		{"house", pattern.House(), 2},
	}
	for _, tc := range cases {
		auts := Automorphisms(tc.p)
		if len(auts) != tc.want {
			t.Errorf("%s: |Aut| = %d, want %d", tc.name, len(auts), tc.want)
		}
		// The identity must be present and every element must be an
		// automorphism.
		foundID := false
		for _, a := range auts {
			id := true
			for i, v := range a {
				if i != v {
					id = false
				}
				_ = v
			}
			if id {
				foundID = true
			}
			q, err := tc.p.Permute(a)
			if err != nil || !q.Equal(tc.p) {
				t.Errorf("%s: %v is not an automorphism", tc.name, a)
			}
		}
		if !foundID {
			t.Errorf("%s: identity missing from Aut", tc.name)
		}
	}
}

func TestLabeledAutomorphisms(t *testing.T) {
	// A triangle with one distinct label only keeps the swap of the two
	// same-labeled vertices.
	p := pattern.MustNew(3, [][2]int{{0, 1}, {1, 2}, {0, 2}},
		pattern.WithLabels([]int32{1, 2, 2}))
	if got := len(Automorphisms(p)); got != 2 {
		t.Fatalf("|Aut| = %d, want 2", got)
	}
}

func TestIsomorphismsAndCopyCounts(t *testing.T) {
	cases := []struct {
		name   string
		p, q   *pattern.Pattern
		copies int
	}{
		{"C4 in K4", pattern.FourCycle(), pattern.FourClique(), 3},
		{"diamond in K4", pattern.ChordalFourCycle(), pattern.FourClique(), 6},
		{"C4 in diamond", pattern.FourCycle(), pattern.ChordalFourCycle(), 1},
		{"TT in diamond", pattern.TailedTriangle(), pattern.ChordalFourCycle(), 4},
		{"TT in K4", pattern.TailedTriangle(), pattern.FourClique(), 12},
		{"4-star in K4", pattern.FourStar(), pattern.FourClique(), 4},
		{"4-star in TT", pattern.FourStar(), pattern.TailedTriangle(), 1},
		{"4-star in C4", pattern.FourStar(), pattern.FourCycle(), 0},
		{"self copy", pattern.House(), pattern.House(), 1},
	}
	// |Iso(p,q)| must equal copies * |Aut(p)| (core.CopyCoefficient is the
	// copy count itself).
	for _, tc := range cases {
		if got, want := len(Isomorphisms(tc.p, tc.q)), tc.copies*len(Automorphisms(tc.p)); got != want {
			t.Errorf("%s: |Iso| = %d, want %d copies x |Aut| = %d", tc.name, got, tc.copies, want)
		}
	}
	if got := len(Isomorphisms(pattern.FourCycle(), pattern.FourClique())); got != 3*8 {
		t.Errorf("|Iso(C4,K4)| = %d, want 24", got)
	}
}

func TestIsomorphismsPreserveEdges(t *testing.T) {
	p, q := pattern.TailedTriangle(), pattern.FourClique()
	for _, f := range Isomorphisms(p, q) {
		for _, e := range p.Edges() {
			if !q.HasEdge(f[e[0]], f[e[1]]) {
				t.Fatalf("map %v drops edge %v", f, e)
			}
		}
	}
}

func TestIsomorphismsRespectLabels(t *testing.T) {
	lp := pattern.MustNew(3, [][2]int{{0, 1}, {1, 2}}, pattern.WithLabels([]int32{1, 2, 1}))
	lq := pattern.MustNew(3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, pattern.WithLabels([]int32{1, 2, 1}))
	isos := Isomorphisms(lp, lq)
	// Wedge center (label 2) must map to label-2 vertex of the triangle;
	// endpoints can swap: exactly 2 maps.
	if len(isos) != 2 {
		t.Fatalf("labeled |Iso| = %d, want 2", len(isos))
	}
	lqBad := pattern.MustNew(3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, pattern.WithLabels([]int32{3, 3, 3}))
	if got := Isomorphisms(lp, lqBad); len(got) != 0 {
		t.Fatalf("mismatched labels produced %d maps", len(got))
	}
}

func TestIsomorphismsSizeGuard(t *testing.T) {
	if got := Isomorphisms(pattern.FiveClique(), pattern.FourClique()); got != nil {
		t.Fatalf("larger-into-smaller must return nil, got %d maps", len(got))
	}
}

func TestCanonicalFormInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	base := pattern.House()
	want := Canonicalize(base)
	for i := 0; i < 50; i++ {
		perm := r.Perm(base.N())
		shuffled, err := base.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		got := Canonicalize(shuffled)
		if !got.Equal(want) {
			t.Fatalf("canonical form differs after renumbering %v", perm)
		}
	}
}

func TestStructureIDProperties(t *testing.T) {
	// Distinct structures must get distinct IDs.
	ids := map[uint64]string{}
	for _, np := range pattern.Fig1Patterns() {
		id := StructureID(np.Pattern)
		if prev, ok := ids[id]; ok {
			t.Fatalf("ID collision between %s and %s", prev, np.Name)
		}
		ids[id] = np.Name
	}
	// Variant flag must not affect StructureID but must affect ID.
	p := pattern.FourCycle()
	v := p.AsVertexInduced()
	if StructureID(p) != StructureID(v) {
		t.Fatal("StructureID must ignore the induced flag")
	}
	if ID(p) == ID(v) {
		t.Fatal("ID must distinguish variants")
	}
	// Labels must affect StructureID.
	lp := pattern.MustNew(3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, pattern.WithLabels([]int32{1, 1, 2}))
	if StructureID(lp) == StructureID(pattern.Triangle()) {
		t.Fatal("labels must change StructureID")
	}
}

func TestIsIsomorphic(t *testing.T) {
	a := pattern.MustNew(4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 3}})
	if !IsIsomorphic(a, pattern.TailedTriangle()) {
		t.Fatal("renumbered tailed triangle not recognized")
	}
	if IsIsomorphic(pattern.FourCycle(), pattern.ChordalFourCycle()) {
		t.Fatal("C4 and diamond are not isomorphic")
	}
	if IsIsomorphic(pattern.Triangle(), pattern.FourClique()) {
		t.Fatal("size mismatch not caught")
	}
}

func TestCanonicalMatch(t *testing.T) {
	p := pattern.Triangle()
	auts := Automorphisms(p)
	got := CanonicalMatch(p, []uint32{9, 3, 5}, auts)
	if !reflect.DeepEqual(got, []uint32{3, 5, 9}) {
		t.Fatalf("triangle canonical match = %v, want sorted", got)
	}
	// Tailed triangle: only vertices 1 and 2 may swap.
	tt := pattern.TailedTriangle()
	auts = Automorphisms(tt)
	got = CanonicalMatch(tt, []uint32{7, 9, 2, 1}, auts)
	if !reflect.DeepEqual(got, []uint32{7, 2, 9, 1}) {
		t.Fatalf("tailed triangle canonical match = %v, want [7 2 9 1]", got)
	}
}

func TestAllConnectedPatterns(t *testing.T) {
	wants := map[int]int{2: 1, 3: 2, 4: 6, 5: 21}
	for n, want := range wants {
		ps, err := AllConnectedPatterns(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) != want {
			t.Fatalf("n=%d: %d classes, want %d", n, len(ps), want)
		}
		seen := map[uint64]bool{}
		for _, p := range ps {
			if p.N() != n || !p.IsConnected() {
				t.Fatalf("n=%d: bad representative %v", n, p)
			}
			id := StructureID(p)
			if seen[id] {
				t.Fatalf("n=%d: duplicate class", n)
			}
			seen[id] = true
		}
	}
	if _, err := AllConnectedPatterns(1); err == nil {
		t.Fatal("expected error for n=1")
	}
	if _, err := AllConnectedPatterns(7); err == nil {
		t.Fatal("expected error for n=7")
	}
}

func TestAllConnectedPatternsSix(t *testing.T) {
	if testing.Short() {
		t.Skip("brute force over 2^15 graphs")
	}
	ps, err := AllConnectedPatterns(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 112 {
		t.Fatalf("n=6: %d classes, want 112", len(ps))
	}
}

func randomConnected(r *rand.Rand, maxN int) *pattern.Pattern {
	n := 2 + r.Intn(maxN-1)
	var edges [][2]int
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{r.Intn(v), v})
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			present := false
			for _, e := range edges {
				if e[0] == u && e[1] == v || e[0] == v && e[1] == u {
					present = true
				}
			}
			if !present && r.Intn(3) == 0 {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return pattern.MustNew(n, edges)
}

func TestQuickCanonicalInvariantUnderPermutation(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		_ = seed
		p := randomConnected(r, 6)
		perm := r.Perm(p.N())
		q, err := p.Permute(perm)
		if err != nil {
			return false
		}
		return StructureID(p) == StructureID(q) && Canonicalize(p).Equal(Canonicalize(q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIsoCountDivisibleByAut(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	f := func(seed int64) bool {
		_ = seed
		p := randomConnected(r, 4)
		q := randomConnected(r, 5)
		if p.N() > q.N() {
			p, q = q, p
		}
		iso := len(Isomorphisms(p, q))
		aut := len(Automorphisms(p))
		return iso%aut == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCanonicalMatchIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	f := func(seed int64) bool {
		_ = seed
		p := randomConnected(r, 6)
		auts := Automorphisms(p)
		m := make([]uint32, p.N())
		for i := range m {
			m[i] = uint32(r.Intn(100))
		}
		c1 := CanonicalMatch(p, m, auts)
		c2 := CanonicalMatch(p, c1, auts)
		return reflect.DeepEqual(c1, c2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestOrbitMatchesListedGroup: Orbit(p, v), found one witness at a time,
// is the set of images of v under the listed automorphisms that fix every
// vertex below v — over random labeled patterns with and without explicit
// anti-edges.
func TestOrbitMatchesListedGroup(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 1500; trial++ {
		n := 2 + r.Intn(6)
		var edges, anti [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				switch r.Intn(4) {
				case 0, 1:
					edges = append(edges, [2]int{u, v})
				case 2:
					if trial%3 == 0 {
						anti = append(anti, [2]int{u, v})
					}
				}
			}
		}
		labels := make([]int32, n)
		for i := range labels {
			labels[i] = int32(r.Intn(1 + trial%3))
		}
		opts := []pattern.Option{pattern.WithLabels(labels)}
		if len(anti) > 0 {
			opts = append(opts, pattern.WithAntiEdges(anti))
		} else {
			opts = append(opts, pattern.WithInduced(pattern.Induced(r.Intn(2))))
		}
		p := pattern.MustNew(n, edges, opts...)
		auts := Automorphisms(p)
		for v := 0; v < n; v++ {
			want := map[int]bool{}
		next:
			for _, a := range auts {
				for u := 0; u < v; u++ {
					if a[u] != u {
						continue next
					}
				}
				want[a[v]] = true
			}
			got := Orbit(p, v)
			if len(got) != len(want) || !sort.IntsAreSorted(got) {
				t.Fatalf("%v: orbit of %d is %v, the listed group says %v", p, v, got, want)
			}
			for _, w := range got {
				if !want[w] {
					t.Fatalf("%v: orbit of %d is %v, the listed group says %v", p, v, got, want)
				}
			}
		}
	}
}

// TestInterchangeableVerticesAreNotPermuted: canonical labeling and
// orbits of patterns whose automorphism groups are factorial in size —
// 11! for the 12-vertex star, 12! for the clique, 6!·6!·2 for K6,6 — take
// a search that skips twins, not one that walks the group. A renumbering
// must still land on the same form.
func TestInterchangeableVerticesAreNotPermuted(t *testing.T) {
	var k66 [][2]int
	for u := 0; u < 6; u++ {
		for v := 6; v < 12; v++ {
			k66 = append(k66, [2]int{u, v})
		}
	}
	for _, p := range []*pattern.Pattern{pattern.Star(12), pattern.Clique(12), pattern.MustNew(12, k66)} {
		perm := rand.New(rand.NewSource(3)).Perm(p.N())
		q, err := p.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := Canonicalize(p), Canonicalize(q); !a.Equal(b) || StructureID(p) != StructureID(q) {
			t.Errorf("%v and its renumbering canonicalize to %v and %v", p, a, b)
		}
		size := 1
		for v := 0; v < p.N(); v++ {
			size *= len(Orbit(p, v))
		}
		want := map[int]int{11: 39916800, 66: 479001600, 36: 720 * 720 * 2}[p.EdgeCount()]
		if size != want {
			t.Errorf("%v: orbit sizes multiply to %d, |Aut| is %d", p, size, want)
		}
	}
}
