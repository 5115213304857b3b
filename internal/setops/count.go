package setops

// Filter restricts which elements a count-only kernel counts: the
// half-open vertex-id window [Lo, Hi) implements symmetry-breaking bounds,
// and a non-nil Labels slice additionally requires Labels[v] == Want.
// Fusing both into the kernel is what lets matching executors run their
// final level without materializing a candidate set and filtering it
// afterwards.
type Filter struct {
	Lo, Hi uint32
	Labels []int32
	Want   int32
}

// All returns the filter that passes every element.
func All() Filter { return Filter{Hi: ^uint32(0)} }

// Window returns the filter passing elements in the half-open window
// [lo, hi) with no label constraint.
func Window(lo, hi uint32) Filter { return Filter{Lo: lo, Hi: hi} }

// Pass reports whether v satisfies the filter.
func (f Filter) Pass(v uint32) bool {
	return v >= f.Lo && v < f.Hi && (f.Labels == nil || f.Labels[v] == f.Want)
}

// CountF counts the elements of sorted slice a passing the filter. With no
// label constraint this is pure arithmetic — two binary searches, no scan —
// which is the cheapest possible "last level" of a counting plan.
func CountF(a []uint32, f Filter, st *Stats) uint64 {
	st.Ops++
	st.CountOps++
	a = Clip(a, f.Lo, f.Hi)
	if f.Labels == nil {
		return uint64(len(a))
	}
	st.Elems += uint64(len(a))
	var n uint64
	for _, v := range a {
		if f.Labels[v] == f.Want {
			n++
		}
	}
	return n
}

// IntersectCountF counts |a ∩ b| restricted to the filter without writing
// the intersection anywhere. Both sides are narrowed to the window by
// binary search before the kernel dispatches between merging and
// galloping.
func IntersectCountF(a, b []uint32, f Filter, st *Stats) uint64 {
	st.Ops++
	st.CountOps++
	a = Clip(a, f.Lo, f.Hi)
	b = Clip(b, f.Lo, f.Hi)
	if len(a) > len(b) {
		a, b = b, a
	}
	var n uint64
	if shouldGallop(len(a), len(b)) {
		var probes uint64
		j := 0
		for _, x := range a {
			j = GallopGE(b, j, x, &probes)
			if j >= len(b) {
				break
			}
			if b[j] == x {
				if f.Labels == nil || f.Labels[x] == f.Want {
					n++
				}
				j++
			}
		}
		st.Elems += uint64(len(a)) + probes
		return n
	}
	if f.Labels == nil {
		// The window is already fused by the Clip above and no label test
		// remains, so the branch-minimized count applies. It charges Elems
		// only; this operation is already booked under CountOps.
		if len(a) >= unrolledMinLen {
			return unrolledIntersectCount(a, b, st)
		}
	}
	st.Elems += uint64(len(a) + len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if f.Labels == nil || f.Labels[a[i]] == f.Want {
				n++
			}
			i++
			j++
		}
	}
	return n
}

// DifferenceCountF counts |a \ b| restricted to the filter without
// materializing the difference.
func DifferenceCountF(a, b []uint32, f Filter, st *Stats) uint64 {
	st.Ops++
	st.CountOps++
	a = Clip(a, f.Lo, f.Hi)
	b = Clip(b, f.Lo, f.Hi)
	var n uint64
	if shouldGallop(len(a), len(b)) {
		var probes uint64
		j := 0
		for _, x := range a {
			j = GallopGE(b, j, x, &probes)
			if (j >= len(b) || b[j] != x) && (f.Labels == nil || f.Labels[x] == f.Want) {
				n++
			}
		}
		st.Elems += uint64(len(a)) + probes
		return n
	}
	if f.Labels == nil && len(a) >= unrolledMinLen && len(b) >= unrolledMinLen {
		return unrolledDifferenceCount(a, b, st)
	}
	st.Elems += uint64(len(a) + len(b))
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if (j == len(b) || b[j] != x) && (f.Labels == nil || f.Labels[x] == f.Want) {
			n++
		}
	}
	return n
}

// RankPairs counts, over sorted a and b, the pairs (x, y) ∈ a×b with y < x
// (below) and with y == x (equal, |a ∩ b|); the pairs with y > x are the
// rest of |a|·|b|. Summed over a, it is how many elements of b lie below
// each element of a — the rank sum a collapsed leaf's count reduces to.
// The smaller side is walked and the larger merged or, past the galloping
// threshold, galloped, so a hub row against three elements stays
// O(3·log|b|). It charges the elements examined to Elems and counts no Op:
// it replaces per-candidate window arithmetic, not a set operation.
func RankPairs(a, b []uint32, st *Stats) (below, equal uint64) {
	if len(a) <= len(b) {
		return rankPairs(a, b, &st.Elems)
	}
	above, equal := rankPairs(b, a, &st.Elems)
	return uint64(len(a))*uint64(len(b)) - above - equal, equal
}

// rankPairs is RankPairs walking a, the smaller side.
func rankPairs(a, b []uint32, elems *uint64) (below, equal uint64) {
	if shouldGallop(len(a), len(b)) {
		var probes uint64
		j := 0
		for i, x := range a {
			if j = GallopGE(b, j, x, &probes); j == len(b) {
				below += uint64(len(a)-i) * uint64(j)
				break
			}
			below += uint64(j)
			if b[j] == x {
				equal++
			}
		}
		*elems += uint64(len(a)) + probes
		return below, equal
	}
	*elems += uint64(len(a) + len(b))
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		below += uint64(j)
		if j < len(b) && b[j] == x {
			equal++
		}
	}
	return below, equal
}
