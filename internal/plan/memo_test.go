package plan

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"morphing/internal/canon"
	"morphing/internal/pattern"
)

// listedSymmetry is SymmetryConditions as it was computed from the listed
// automorphism group: the reference for the stabilizer-chain walk.
func listedSymmetry(p *pattern.Pattern) ([][2]int, int) {
	auts := canon.Automorphisms(p)
	size := len(auts)
	var conds [][2]int
	for len(auts) > 1 {
		v := -1
		for u := 0; u < p.N() && v == -1; u++ {
			for _, a := range auts {
				if a[u] != u {
					v = u
					break
				}
			}
		}
		inOrbit := map[int]bool{}
		for _, a := range auts {
			inOrbit[a[v]] = true
		}
		orbit := make([]int, 0, len(inOrbit))
		for w := range inOrbit {
			orbit = append(orbit, w)
		}
		sort.Ints(orbit)
		for _, w := range orbit {
			if w != v {
				conds = append(conds, [2]int{v, w})
			}
		}
		var stab [][]int
		for _, a := range auts {
			if a[v] == v {
				stab = append(stab, a)
			}
		}
		auts = stab
	}
	return conds, size
}

// randomPattern draws a connected pattern on n vertices in a random
// variant, labeled from the given labels (none: unlabeled).
func randomPattern(r *rand.Rand, n int, labels []int32) *pattern.Pattern {
	var edges [][2]int
	has := map[[2]int]bool{}
	for v := 1; v < n; v++ {
		e := [2]int{r.Intn(v), v}
		edges, has[e] = append(edges, e), true
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !has[[2]int{u, v}] && r.Intn(3) == 0 {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	opts := []pattern.Option{pattern.WithInduced(pattern.Induced(r.Intn(2)))}
	if len(labels) > 0 {
		ls := make([]int32, n)
		for i := range ls {
			ls[i] = labels[r.Intn(len(labels))]
		}
		opts = append(opts, pattern.WithLabels(ls))
	}
	return pattern.MustNew(n, edges, opts...)
}

// TestBuildEqualsUnmemoizedPlan: the plan Build returns from the shape
// memo — whichever labeling of the shape filled it — is the plan built
// from scratch for this very pattern, with the conditions of its listed
// automorphism group, and with the ops this pattern's own counting pass
// lowers to (Counting, which the memo keeps for the shape), and |Aut| is
// that group's size.
func TestBuildEqualsUnmemoizedPlan(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	// Label values whose decimal, numeric and first-occurrence orders all
	// differ: only equality between them may matter.
	alphabets := [][]int32{nil, {7}, {10, 9}, {3, 100, 20}, {pattern.Unlabeled, 0, 5}}
	for trial := 0; trial < 2000; trial++ {
		p := randomPattern(r, 2+r.Intn(6), alphabets[r.Intn(len(alphabets))])
		conds, aut := listedSymmetry(p)
		want, err := BuildWithConditions(p, DefaultOrder(p), conds)
		if err != nil {
			t.Fatal(err)
		}
		want.Counting = want.CountingOps(nil, true)
		got, gotAut, err := BuildAut(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Pattern != p || gotAut != aut {
			t.Fatalf("%v: plan bound to %v with |Aut| %d, want this pattern and %d", p, got.Pattern, gotAut, aut)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("%v: memoized plan %+v, built from scratch %+v", p, got, want)
		}
	}
}

// TestSymmetryWithoutListingTheGroup: the patterns whose automorphism
// groups are too large to list plan in no time.
func TestSymmetryWithoutListingTheGroup(t *testing.T) {
	for _, tc := range []struct {
		p   *pattern.Pattern
		aut int
	}{
		{pattern.Star(12), 39916800},    // 11!
		{pattern.Clique(12), 479001600}, // 12!
		{pattern.Path(12), 2},
		{pattern.Cycle(12), 24},
	} {
		pl, aut, err := BuildAut(tc.p)
		if err != nil || aut != tc.aut {
			t.Fatalf("%v: |Aut| %d (err %v), want %d", tc.p, aut, err, tc.aut)
		}
		// A chain of orbits of sizes s1, s2, … yields Σ(si-1) conditions.
		if tc.p.IsClique() && len(pl.Conditions) != 66 {
			t.Errorf("12-clique: %d conditions, want all 66 pairs ordered", len(pl.Conditions))
		}
	}
}

// TestMemosStayBounded: the shape memo is bounded like canon's — a
// resident process fed ever new shapes keeps at most canon.MemoCap plans —
// and serves concurrent callers.
func TestMemosStayBounded(t *testing.T) {
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < canon.MemoCap/2; i++ {
				// 9-vertex random patterns over 3 labels: all but a few are new shapes.
				if _, err := Build(randomPattern(r, 9, []int32{0, 1, 2})); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := shapes.Len(); n > canon.MemoCap || n < canon.MemoCap/2 {
		t.Errorf("shape memo holds %d plans after %d mostly distinct shapes, want within (%d, %d]", n, 2*canon.MemoCap, canon.MemoCap/2, canon.MemoCap)
	}
}
