package setops

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestIntersect(t *testing.T) {
	var st Stats
	cases := []struct{ a, b, want []uint32 }{
		{[]uint32{1, 3, 5, 7}, []uint32{3, 4, 5, 9}, []uint32{3, 5}},
		{[]uint32{}, []uint32{1, 2}, []uint32{}},
		{[]uint32{1, 2}, []uint32{}, []uint32{}},
		{[]uint32{1, 2, 3}, []uint32{1, 2, 3}, []uint32{1, 2, 3}},
		{[]uint32{1, 2}, []uint32{3, 4}, []uint32{}},
	}
	for i, c := range cases {
		got := Intersect(nil, c.a, c.b, &st)
		if !reflect.DeepEqual(append([]uint32{}, got...), c.want) {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
	if st.Ops != uint64(len(cases)) {
		t.Errorf("Ops = %d, want %d", st.Ops, len(cases))
	}
}

func TestDifference(t *testing.T) {
	var st Stats
	cases := []struct{ a, b, want []uint32 }{
		{[]uint32{1, 3, 5, 7}, []uint32{3, 4, 7}, []uint32{1, 5}},
		{[]uint32{1, 2}, []uint32{}, []uint32{1, 2}},
		{[]uint32{}, []uint32{1}, []uint32{}},
		{[]uint32{1, 2}, []uint32{1, 2}, []uint32{}},
	}
	for i, c := range cases {
		got := Difference(nil, c.a, c.b, &st)
		if !reflect.DeepEqual(append([]uint32{}, got...), c.want) {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestContains(t *testing.T) {
	a := []uint32{1, 4, 9, 16}
	for _, x := range a {
		if !Contains(a, x) {
			t.Errorf("Contains(%v, %d) = false", a, x)
		}
	}
	for _, x := range []uint32{0, 2, 17} {
		if Contains(a, x) {
			t.Errorf("Contains(%v, %d) = true", a, x)
		}
	}
	if Contains(nil, 1) {
		t.Error("Contains(nil, 1) = true")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Ops: 2, Elems: 10}
	a.Add(Stats{Ops: 3, Elems: 7})
	if a.Ops != 5 || a.Elems != 17 {
		t.Fatalf("got %+v", a)
	}
}

func sortedSet(r *rand.Rand, max int) []uint32 {
	n := r.Intn(20)
	m := map[uint32]struct{}{}
	for i := 0; i < n; i++ {
		m[uint32(r.Intn(max))] = struct{}{}
	}
	out := make([]uint32, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestQuickAgainstMaps(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var st Stats
	f := func(seed int64) bool {
		_ = seed
		a, b := sortedSet(r, 30), sortedSet(r, 30)
		inB := map[uint32]bool{}
		for _, v := range b {
			inB[v] = true
		}
		var wantI, wantD []uint32
		for _, v := range a {
			if inB[v] {
				wantI = append(wantI, v)
			} else {
				wantD = append(wantD, v)
			}
		}
		gotI := Intersect(nil, a, b, &st)
		gotD := Difference(nil, a, b, &st)
		return reflect.DeepEqual(append([]uint32{}, gotI...), append([]uint32{}, wantI...)) &&
			reflect.DeepEqual(append([]uint32{}, gotD...), append([]uint32{}, wantD...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchAbove(t *testing.T) {
	a := []uint32{2, 4, 6, 8}
	cases := []struct {
		lower uint32
		want  int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {7, 3}, {8, 4}, {100, 4}}
	for _, c := range cases {
		if got := SearchAbove(a, c.lower); got != c.want {
			t.Errorf("SearchAbove(%v, %d) = %d, want %d", a, c.lower, got, c.want)
		}
	}
	if got := SearchAbove(nil, 0); got != 0 {
		t.Errorf("SearchAbove(nil, 0) = %d", got)
	}
}

func TestClip(t *testing.T) {
	a := []uint32{0, 2, 4, 6, 8}
	cases := []struct {
		lo, hi uint32
		want   []uint32
	}{
		{0, ^uint32(0), []uint32{0, 2, 4, 6, 8}},
		{1, 7, []uint32{2, 4, 6}},
		{2, 8, []uint32{2, 4, 6}},
		{0, 1, []uint32{0}},
		{9, 4, []uint32{}},
		{8, 8, []uint32{}},
	}
	for i, c := range cases {
		got := Clip(a, c.lo, c.hi)
		if !reflect.DeepEqual(append([]uint32{}, got...), c.want) {
			t.Errorf("case %d: Clip[%d,%d) = %v, want %v", i, c.lo, c.hi, got, c.want)
		}
	}
}

// denseSet returns a sorted duplicate-free set of n elements drawn from
// [0, max).
func denseSet(r *rand.Rand, n, max int) []uint32 {
	m := map[uint32]struct{}{}
	for len(m) < n && len(m) < max {
		m[uint32(r.Intn(max))] = struct{}{}
	}
	out := make([]uint32, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestGallopPathsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		a := denseSet(r, 10, 100000)
		b := denseSet(r, 5000, 100000)
		var st Stats
		if got, want := Intersect(nil, a, b, &st), RefIntersect(a, b); !reflect.DeepEqual(append([]uint32{}, got...), want) {
			t.Fatalf("gallop intersect: got %v want %v", got, want)
		}
		if st.GallopOps == 0 {
			t.Fatal("skewed intersect did not take the galloping path")
		}
		st = Stats{}
		if got, want := Difference(nil, a, b, &st), RefDifference(a, b); !reflect.DeepEqual(append([]uint32{}, got...), want) {
			t.Fatalf("gallop difference: got %v want %v", got, want)
		}
		if st.GallopOps == 0 {
			t.Fatal("skewed difference did not take the galloping path")
		}
		// Galloping must charge fewer examined elements than the merge would.
		if st.Elems >= uint64(len(a)+len(b)) {
			t.Fatalf("gallop charged %d elems, merge would charge %d", st.Elems, len(a)+len(b))
		}
	}
}

func TestCountKernelsMatchMaterialized(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	labels := make([]int32, 1000)
	for i := range labels {
		labels[i] = int32(i % 3)
	}
	for trial := 0; trial < 200; trial++ {
		a := denseSet(r, r.Intn(40), 1000)
		b := denseSet(r, r.Intn(900), 1000)
		lo := uint32(r.Intn(1000))
		hi := uint32(r.Intn(1000))
		for _, f := range []Filter{
			All(),
			Window(lo, hi),
			{Lo: lo, Hi: hi, Labels: labels, Want: 1},
		} {
			var st Stats
			wantI := filterCount(RefIntersect(a, b), f)
			if got := IntersectCountF(a, b, f, &st); got != wantI {
				t.Fatalf("IntersectCountF(%v,%v,%+v) = %d, want %d", a, b, f, got, wantI)
			}
			wantD := filterCount(RefDifference(a, b), f)
			if got := DifferenceCountF(a, b, f, &st); got != wantD {
				t.Fatalf("DifferenceCountF = %d, want %d", got, wantD)
			}
			wantC := filterCount(a, f)
			if got := CountF(a, f, &st); got != wantC {
				t.Fatalf("CountF = %d, want %d", got, wantC)
			}
			if st.Written != 0 {
				t.Fatalf("count-only kernels wrote %d elements", st.Written)
			}
			if st.CountOps != st.Ops {
				t.Fatalf("count-only ops %d != ops %d", st.CountOps, st.Ops)
			}
		}
	}
}

// refRankPairs is RankPairs by brute force: every pair compared.
func refRankPairs(a, b []uint32) (below, equal uint64) {
	for _, x := range a {
		for _, y := range b {
			if y < x {
				below++
			} else if y == x {
				equal++
			}
		}
	}
	return below, equal
}

// TestRankPairsMatchesBruteForce checks the rank-sum kernel against the
// pairwise count on a table of shapes — empty sides, shared and disjoint
// elements, element zero, both sides clipped to windows — whose skewed
// rows must take the galloping path (fewer elements charged than a merge)
// and whose balanced rows the merge (exactly |a|+|b| charged), in either
// argument order, and on random pairs. It counts no Op.
func TestRankPairsMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	hub := denseSet(r, 3000, 5000)
	three := []uint32{hub[10], 2500, hub[2999] + 1}
	for _, tc := range []struct {
		name   string
		a, b   []uint32
		gallop bool
	}{
		{"both empty", nil, nil, false},
		{"empty a", nil, []uint32{1, 2, 3}, false},
		{"empty b", []uint32{0, 5}, nil, false},
		{"element zero", []uint32{0}, []uint32{0, 1}, false},
		{"identical", []uint32{1, 4, 9}, []uint32{1, 4, 9}, false},
		{"disjoint, a above", []uint32{10, 11}, []uint32{1, 2, 3}, false},
		{"interleaved", []uint32{1, 3, 5, 7}, []uint32{0, 3, 4, 7, 8}, false},
		{"windows", Clip(hub, 100, 900), Clip(denseSet(r, 400, 5000), 300, 1200), false},
		{"three against a hub", three, hub, true},
		{"a hub against three", hub, three, true},
		{"windowed hub against one", []uint32{2000}, Clip(hub, 1000, 4000), true},
		{"one past the hub's end", []uint32{hub[2999] + 5}, hub, true},
	} {
		var st Stats
		below, equal := RankPairs(tc.a, tc.b, &st)
		wantB, wantE := refRankPairs(tc.a, tc.b)
		if below != wantB || equal != wantE {
			t.Errorf("%s: RankPairs = (%d, %d), want (%d, %d)", tc.name, below, equal, wantB, wantE)
		}
		merge := uint64(len(tc.a) + len(tc.b))
		if tc.gallop && st.Elems >= merge || !tc.gallop && st.Elems != merge {
			t.Errorf("%s: charged %d elements, a merge charges %d (gallop expected: %v)", tc.name, st.Elems, merge, tc.gallop)
		}
		if st.Ops != 0 {
			t.Errorf("%s: RankPairs counted %d ops", tc.name, st.Ops)
		}
	}
	for trial := 0; trial < 300; trial++ {
		a, b := denseSet(r, r.Intn(80), 400), denseSet(r, r.Intn(2)*r.Intn(600), 400)
		var st Stats
		below, equal := RankPairs(a, b, &st)
		if wantB, wantE := refRankPairs(a, b); below != wantB || equal != wantE {
			t.Fatalf("RankPairs(%v, %v) = (%d, %d), want (%d, %d)", a, b, below, equal, wantB, wantE)
		}
	}
}

func filterCount(a []uint32, f Filter) uint64 {
	var n uint64
	for _, v := range a {
		if f.Pass(v) {
			n++
		}
	}
	return n
}

func toBits(a []uint32, max int) []uint64 {
	words := make([]uint64, (max+63)/64)
	for _, v := range a {
		words[v>>6] |= 1 << (v & 63)
	}
	return words
}

func TestBitsetKernelsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	labels := make([]int32, 1024)
	for i := range labels {
		labels[i] = int32(i % 2)
	}
	for trial := 0; trial < 100; trial++ {
		a := denseSet(r, r.Intn(60), 1024)
		b := denseSet(r, r.Intn(500), 1024)
		bits := toBits(b, 1024)
		var st Stats
		if got, want := IntersectBits(nil, a, bits, &st), RefIntersect(a, b); !reflect.DeepEqual(append([]uint32{}, got...), want) {
			t.Fatalf("IntersectBits: got %v want %v", got, want)
		}
		if got, want := DifferenceBits(nil, a, bits, &st), RefDifference(a, b); !reflect.DeepEqual(append([]uint32{}, got...), want) {
			t.Fatalf("DifferenceBits: got %v want %v", got, want)
		}
		f := Filter{Lo: uint32(r.Intn(1024)), Hi: uint32(r.Intn(1024)), Labels: labels, Want: 1}
		if got, want := IntersectBitsCountF(a, bits, f, &st), filterCount(RefIntersect(a, b), f); got != want {
			t.Fatalf("IntersectBitsCountF = %d, want %d", got, want)
		}
		if got, want := DifferenceBitsCountF(a, bits, f, &st), filterCount(RefDifference(a, b), f); got != want {
			t.Fatalf("DifferenceBitsCountF = %d, want %d", got, want)
		}
		abits := toBits(a, 1024)
		if got, want := AndCountF(abits, bits, f, &st), filterCount(RefIntersect(a, b), f); got != want {
			t.Fatalf("AndCountF = %d, want %d", got, want)
		}
		if got, want := AndCountF(abits, bits, All(), &st), uint64(len(RefIntersect(a, b))); got != want {
			t.Fatalf("AndCountF(All) = %d, want %d", got, want)
		}
	}
}

func TestStatsPathPartition(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	var st Stats
	tiny := denseSet(r, 6, 50000)
	small := denseSet(r, 8, 50000)
	big := denseSet(r, 9000, 50000)
	even := denseSet(r, 500, 50000)
	bits := toBits(big, 50000)
	Intersect(nil, small, big, &st) // gallop
	Intersect(nil, tiny, tiny, &st) // merge (below unrolledMinLen)
	Intersect(nil, even, even, &st) // unrolled (balanced)
	IntersectBits(nil, small, bits, &st)
	IntersectCountF(small, big, All(), &st) // count-only
	Difference(nil, even, even, &st)        // merge: a difference materializes by gallop or merge only
	if st.Ops != st.MergeOps+st.GallopOps+st.BitsetOps+st.CountOps+st.UnrolledOps {
		t.Fatalf("path counters do not partition Ops: %+v", st)
	}
	if st.GallopOps == 0 || st.MergeOps != 2 || st.BitsetOps == 0 ||
		st.CountOps == 0 || st.UnrolledOps != 1 {
		t.Fatalf("expected all paths exercised: %+v", st)
	}
}
