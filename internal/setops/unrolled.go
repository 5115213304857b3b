package setops

// Word-parallel balanced-path kernels: a branch-minimized, 4-wide
// block-skipping merge for intersection, plus count-only intersection and
// difference. The classic two-pointer merge pays two data-dependent
// compares per element; these kernels restructure the loop the way
// compilation-based systems (GraphZero, GraphMini) do:
//
//   - a 4-wide outer guard skips whole blocks with one comparison when
//     the sides are locally disjoint (a[i+3] < b[j] lets i jump by 4);
//   - intersection leapfrogs between single-compare skip loops — one
//     compare per skipped element, no stores on the skip path, a match
//     branch that only fires on actual matches (rare on balanced sets);
//   - the count-only variants advance their cursors branchlessly:
//     i += b2i(v <= w) compiles to a flag-materializing SETcc/CSET, never
//     a jump, and nothing is stored at all.
//
// Intersect charges Stats.UnrolledOps here and keeps the scalar merge
// (MergeOps) for inputs too short to amortize the setup; the count-only
// variants serve every unlabeled count at any size, booked under CountOps.

// unrolledMinLen is the smallest small side unrolledIntersect accepts:
// below it the scalar merge's simplicity wins and Intersect keeps the old
// path (and the old MergeOps accounting).
const unrolledMinLen = 16

// b2i converts a bool to 0/1. The compiler lowers this pattern to a
// branchless SETcc/CSET — it is the primitive all branch-minimized
// kernels advance their cursors with.
func b2i(b bool) int {
	var x int
	if b {
		x = 1
	}
	return x
}

// b2u64 is b2i for counters.
func b2u64(b bool) uint64 {
	var x uint64
	if b {
		x = 1
	}
	return x
}

// ensureCap returns dst (length 0) with capacity at least n, growing from
// the arena attached to st when present, the GC heap otherwise. Its
// callers index or block-copy into the result, so they need the full
// capacity up front.
func ensureCap(dst []uint32, n int, st *Stats) []uint32 {
	if cap(dst) >= n {
		return dst[:0]
	}
	if st.Scratch != nil {
		return st.Scratch.Alloc(n)
	}
	return make([]uint32, 0, n)
}

// unrolledIntersect writes a ∩ b into dst[:0] with the block-skip
// leapfrog merge. Both sides sorted duplicate-free; no size precondition
// beyond what dispatch enforces.
//
// Intersections of balanced sets are mostly non-matches, so the two costs
// that matter are compares per skipped element and the price of the rare
// match. The leapfrog skip loops advance one cursor per single compare
// (the classic three-way merge pays two), mispredict only at run ends,
// and do no stores at all on the skip path — a store-always scheme would
// issue thousands of dependent writes for a handful of matches. The
// 4-wide guard on the outer loop additionally jumps a whole block on one
// compare when the sides are locally disjoint, which is where adjacency
// lists with disjoint vertex ranges collapse to ~n/4 compares.
func unrolledIntersect(dst, a, b []uint32, st *Stats) []uint32 {
	st.UnrolledOps++
	st.Elems += uint64(len(a) + len(b))
	need := len(a)
	if len(b) < need {
		need = len(b)
	}
	dst = ensureCap(dst, need, st)
	out := dst[:need]
	k := 0
	i, j := 0, 0
	na, nb := len(a), len(b)
outer:
	for i+4 <= na && j+4 <= nb {
		// Block skip: one comparison advances a cursor by 4 when the
		// other side's current element clears the whole block.
		if a[i+3] < b[j] {
			i += 4
			continue
		}
		if b[j+3] < a[i] {
			j += 4
			continue
		}
		// Leapfrog to the next crossing: each loop is one compare per
		// element, exits with a[i] >= b[j] (resp. b[j] >= a[i]).
		for a[i] < b[j] {
			if i++; i == na {
				break outer
			}
		}
		for b[j] < a[i] {
			if j++; j == nb {
				break outer
			}
		}
		if a[i] == b[j] {
			out[k] = a[i]
			k++
			i++
			j++
		}
	}
	for i < na && j < nb {
		switch {
		case a[i] < b[j]:
			i++
		case b[j] < a[i]:
			j++
		default:
			out[k] = a[i]
			k++
			i++
			j++
		}
	}
	st.Written += uint64(k)
	return out[:k]
}

// unrolledIntersectCount counts |a ∩ b| with the branch-minimized merge,
// writing nothing. Label filters are applied by the dispatcher before
// choosing this kernel (it only runs unlabeled), and windows were already
// fused by clipping, so the inner loop is pure arithmetic.
func unrolledIntersectCount(a, b []uint32, st *Stats) uint64 {
	st.Elems += uint64(len(a) + len(b))
	var n uint64
	i, j := 0, 0
	na, nb := len(a), len(b)
	for i+4 <= na && j+4 <= nb {
		if a[i+3] < b[j] {
			i += 4
			continue
		}
		if b[j+3] < a[i] {
			j += 4
			continue
		}
		for s := 0; s < 4; s++ {
			v, w := a[i], b[j]
			n += b2u64(v == w)
			i += b2i(v <= w)
			j += b2i(w <= v)
		}
	}
	for i < na && j < nb {
		v, w := a[i], b[j]
		n += b2u64(v == w)
		i += b2i(v <= w)
		j += b2i(w <= v)
	}
	return n
}

// unrolledDifferenceCount counts |a \ b| with the branch-minimized merge.
func unrolledDifferenceCount(a, b []uint32, st *Stats) uint64 {
	st.Elems += uint64(len(a) + len(b))
	var n uint64
	i, j := 0, 0
	na, nb := len(a), len(b)
	for i+4 <= na && j+4 <= nb {
		if a[i+3] < b[j] {
			n += 4
			i += 4
			continue
		}
		if b[j+3] < a[i] {
			j += 4
			continue
		}
		for s := 0; s < 4; s++ {
			v, w := a[i], b[j]
			n += b2u64(v < w)
			i += b2i(v <= w)
			j += b2i(w <= v)
		}
	}
	for i < na && j < nb {
		v, w := a[i], b[j]
		n += b2u64(v < w)
		i += b2i(v <= w)
		j += b2i(w <= v)
	}
	n += uint64(na - i)
	return n
}
