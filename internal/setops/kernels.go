package setops

// Intersect writes the sorted intersection of a and b into dst[:0] and
// returns it. a and b must be sorted ascending and duplicate free. The
// kernel is adaptive: heavily skewed inputs gallop through the larger
// side, balanced inputs of any length run the branchless unrolled merge,
// and only short inputs fall back to the scalar two-pointer merge.
func Intersect(dst, a, b []uint32, st *Stats) []uint32 {
	st.Ops++
	if len(a) > len(b) {
		a, b = b, a // intersection is symmetric; keep a the small side
	}
	switch {
	case shouldGallop(len(a), len(b)):
		return gallopIntersect(dst, a, b, st)
	case len(a) >= unrolledMinLen:
		return unrolledIntersect(dst, a, b, st)
	}
	return mergeIntersect(dst, a, b, st)
}

// IntersectAbove is Intersect restricted to elements strictly greater than
// lower; it fuses the symmetry-breaking filter into the kernel, narrowing
// both inputs by binary search before dispatching, as pattern-aware
// engines do.
func IntersectAbove(dst, a, b []uint32, lower uint32, st *Stats) []uint32 {
	return Intersect(dst, a[SearchAbove(a, lower):], b[SearchAbove(b, lower):], st)
}

func mergeIntersect(dst, a, b []uint32, st *Stats) []uint32 {
	st.MergeOps++
	st.Elems += uint64(len(a) + len(b))
	dst = dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	st.Written += uint64(len(dst))
	return dst
}

// gallopIntersect assumes len(a) <= len(b).
func gallopIntersect(dst, a, b []uint32, st *Stats) []uint32 {
	st.GallopOps++
	var probes uint64
	dst = dst[:0]
	j := 0
	for _, x := range a {
		j = GallopGE(b, j, x, &probes)
		if j >= len(b) {
			break
		}
		if b[j] == x {
			dst = append(dst, x)
			j++
		}
	}
	st.Elems += uint64(len(a)) + probes
	st.Written += uint64(len(dst))
	return dst
}

// Difference writes a \ b into dst[:0] and returns it. Each anti-edge in a
// vertex-induced matching plan costs one Difference per loop iteration,
// which is exactly the overhead Subgraph Morphing removes in motif
// counting (§7.1). When b dwarfs a, membership is resolved by galloping
// through b instead of scanning it; everything else is the scalar merge. An
// unrolled materializing difference existed and moved no end-to-end number
// (DESIGN §16): executors materialize a difference only above a level that
// counts, and it is the count-only DifferenceCountF that runs hot.
func Difference(dst, a, b []uint32, st *Stats) []uint32 {
	st.Ops++
	if shouldGallop(len(a), len(b)) {
		return gallopDifference(dst, a, b, st)
	}
	return mergeDifference(dst, a, b, st)
}

func mergeDifference(dst, a, b []uint32, st *Stats) []uint32 {
	st.MergeOps++
	st.Elems += uint64(len(a) + len(b))
	dst = dst[:0]
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			dst = append(dst, x)
		}
	}
	st.Written += uint64(len(dst))
	return dst
}

func gallopDifference(dst, a, b []uint32, st *Stats) []uint32 {
	st.GallopOps++
	var probes uint64
	dst = dst[:0]
	j := 0
	for _, x := range a {
		j = GallopGE(b, j, x, &probes)
		if j >= len(b) || b[j] != x {
			dst = append(dst, x)
		}
	}
	st.Elems += uint64(len(a)) + probes
	st.Written += uint64(len(dst))
	return dst
}

// FilterAbove copies the elements of a strictly greater than lower into
// dst[:0], growing dst through the arena-aware destination convention
// (ensureCap) like every materializing kernel. The work charged to Elems
// is the copied suffix length — the binary search examines only O(log)
// elements, and charging len(a) would inflate the Fig. 12-style set-work
// totals.
func FilterAbove(dst, a []uint32, lower uint32, st *Stats) []uint32 {
	st.Ops++
	st.MergeOps++
	i := SearchAbove(a, lower)
	n := len(a) - i
	st.Elems += uint64(n)
	st.Written += uint64(n)
	dst = ensureCap(dst, n, st)
	return append(dst, a[i:]...)
}

// Remove copies a into dst[:0] without the element x (if present). The
// position of x is found by binary search and the surviving spans are
// block-copied — no per-element compare loop — through the arena-aware
// dst convention.
func Remove(dst, a []uint32, x uint32, st *Stats) []uint32 {
	st.Ops++
	st.MergeOps++
	dst = ensureCap(dst, len(a), st)
	i := searchGE(a, x)
	if i < len(a) && a[i] == x {
		dst = append(dst, a[:i]...)
		dst = append(dst, a[i+1:]...)
	} else {
		dst = append(dst, a...)
	}
	st.Elems += uint64(len(dst))
	st.Written += uint64(len(dst))
	return dst
}
