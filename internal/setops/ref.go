package setops

// Reference kernels: the original naive two-pointer merges, kept as the
// uninstrumented ground truth the differential fuzz harness checks every
// adaptive kernel against. They are not used on any matching hot path.

// RefIntersect returns the sorted intersection of a and b via the naive
// linear merge.
func RefIntersect(a, b []uint32) []uint32 {
	out := make([]uint32, 0)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// RefDifference returns a \ b via the naive linear merge.
func RefDifference(a, b []uint32) []uint32 {
	out := make([]uint32, 0)
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			out = append(out, x)
		}
	}
	return out
}
