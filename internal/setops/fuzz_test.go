package setops

import (
	"reflect"
	"testing"
)

// fuzzMax bounds decoded element values so the bitset side stays small
// enough to rebuild on every fuzz execution.
const fuzzMax = 4096

// decodeSet turns arbitrary fuzz bytes into a sorted duplicate-free set in
// [0, fuzzMax): consecutive byte pairs become values, then sort+dedupe.
func decodeSet(raw []byte) []uint32 {
	seen := [fuzzMax]bool{}
	n := 0
	for i := 0; i+1 < len(raw); i += 2 {
		v := (uint32(raw[i])<<8 | uint32(raw[i+1])) % fuzzMax
		if !seen[v] {
			seen[v] = true
			n++
		}
	}
	out := make([]uint32, 0, n)
	for v := 0; v < fuzzMax; v++ {
		if seen[v] {
			out = append(out, uint32(v))
		}
	}
	return out
}

// FuzzKernels differentially checks every adaptive kernel — merge,
// unrolled, gallop, bitset and count-only paths, with and without fused
// windows and label filters, and the rank sum — against the naive
// reference merges (for the rank sum, a comparison of every pair) on random
// sorted inputs. The public dispatchers run both with and without an arena
// (destination growth from it or from the heap), and the unrolled kernels
// are additionally called directly so dispatch thresholds cannot hide them
// from short adversarial shapes. The seeded corpus covers the edge shapes
// the dispatcher branches on: empty sides, identical sides, fully disjoint
// sides, single elements, skew past the galloping threshold, degenerate
// windows, dense contiguous ranges, and long runs of equal prefixes.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint32(0), uint32(0), byte(0))
	f.Add([]byte{0, 1, 0, 3, 0, 5}, []byte{}, uint32(0), uint32(fuzzMax), byte(1))
	f.Add([]byte{}, []byte{0, 2, 0, 4}, uint32(1), uint32(3), byte(2))
	f.Add([]byte{0, 1, 0, 2, 0, 3}, []byte{0, 1, 0, 2, 0, 3}, uint32(0), uint32(2), byte(0))
	f.Add([]byte{0, 1, 0, 3}, []byte{0, 2, 0, 4}, uint32(2), uint32(1), byte(3)) // inverted window
	f.Add([]byte{0, 0}, []byte{0, 0, 0, 1}, uint32(0), uint32(fuzzMax), byte(0)) // element zero
	// Skewed pair: one element vs a long arithmetic run (gallop path).
	long := make([]byte, 0, 4*gallopMinLen)
	for i := 0; i < 2*gallopMinLen; i++ {
		long = append(long, byte(i>>8), byte(i))
	}
	f.Add([]byte{0, 100}, long, uint32(50), uint32(150), byte(1))
	f.Add(long, []byte{0, 100}, uint32(0), uint32(fuzzMax), byte(2))
	// Rank sums: three elements against a windowed run, one of them past
	// its end (the galloping walk's early exit), and one below the window.
	f.Add([]byte{0, 3, 0, 90, 0x0f, 0xff}, long, uint32(20), uint32(120), byte(0))
	f.Add([]byte{0, 1}, long, uint32(64), uint32(fuzzMax), byte(0))
	// Dense contiguous ranges: both sides saturate a shared vertex range,
	// the unrolled kernels' worst case of equal runs.
	const denseLen = 16 * unrolledMinLen
	denseA := make([]byte, 0, 2*denseLen)
	denseB := make([]byte, 0, 2*denseLen)
	for i := 0; i < denseLen; i++ {
		denseA = append(denseA, byte(i>>8), byte(i))
		if i%2 == 0 || i > denseLen/2 {
			denseB = append(denseB, byte(i>>8), byte(i))
		}
	}
	f.Add(denseA, denseB, uint32(0), uint32(fuzzMax), byte(0))
	f.Add(denseA, denseA, uint32(10), uint32(200), byte(1)) // identical dense sides
	// Runs of equal prefixes that diverge at the tail: the 4-wide block
	// guards never skip, forcing the branchless inner steps the whole way.
	eqPrefix := make([]byte, 0, 4*unrolledMinLen+8)
	for i := 0; i < 2*unrolledMinLen; i++ {
		eqPrefix = append(eqPrefix, byte(i>>8), byte(i))
	}
	f.Add(append(append([]byte{}, eqPrefix...), 0x0f, 0x00), append(append([]byte{}, eqPrefix...), 0x0f, 0x01), uint32(0), uint32(fuzzMax), byte(2))

	f.Fuzz(func(t *testing.T, rawA, rawB []byte, lo, hi uint32, labelSeed byte) {
		a := decodeSet(rawA)
		b := decodeSet(rawB)
		labels := make([]int32, fuzzMax)
		for i := range labels {
			labels[i] = int32((i + int(labelSeed)) % 3)
		}
		filters := []Filter{
			All(),
			Window(lo%fuzzMax, hi%fuzzMax),
			{Lo: lo % fuzzMax, Hi: hi % fuzzMax, Labels: labels, Want: 1},
		}

		wantI := RefIntersect(a, b)
		wantD := RefDifference(a, b)
		bbits := toBits(b, fuzzMax)

		// Run the public dispatchers twice: once bare (heap destinations)
		// and once with an arena attached, which routes destination growth
		// through the arena-aware convention.
		for _, st := range []*Stats{{}, {Scratch: NewArena()}} {
			if got := Intersect(nil, a, b, st); !equal(got, wantI) {
				t.Fatalf("Intersect(%v, %v) = %v, want %v", a, b, got, wantI)
			}
			if got := Difference(nil, a, b, st); !equal(got, wantD) {
				t.Fatalf("Difference(%v, %v) = %v, want %v", a, b, got, wantD)
			}

			if got := IntersectBits(nil, a, bbits, st); !equal(got, wantI) {
				t.Fatalf("IntersectBits = %v, want %v", got, wantI)
			}
			if got := DifferenceBits(nil, a, bbits, st); !equal(got, wantD) {
				t.Fatalf("DifferenceBits = %v, want %v", got, wantD)
			}

			written := st.Written
			for _, fl := range filters {
				if got, want := IntersectCountF(a, b, fl, st), filterCount(wantI, fl); got != want {
					t.Fatalf("IntersectCountF(%v, %v, %+v) = %d, want %d", a, b, fl, got, want)
				}
				if got, want := DifferenceCountF(a, b, fl, st), filterCount(wantD, fl); got != want {
					t.Fatalf("DifferenceCountF(%v, %v, %+v) = %d, want %d", a, b, fl, got, want)
				}
				if got, want := CountF(a, fl, st), filterCount(a, fl); got != want {
					t.Fatalf("CountF(%v, %+v) = %d, want %d", a, fl, got, want)
				}
				if got, want := IntersectBitsCountF(a, bbits, fl, st), filterCount(wantI, fl); got != want {
					t.Fatalf("IntersectBitsCountF = %d, want %d", got, want)
				}
				if got, want := DifferenceBitsCountF(a, bbits, fl, st), filterCount(wantD, fl); got != want {
					t.Fatalf("DifferenceBitsCountF = %d, want %d", got, want)
				}
				abits := toBits(a, fuzzMax)
				if got, want := AndCountF(abits, bbits, fl, st), filterCount(wantI, fl); got != want {
					t.Fatalf("AndCountF(%+v) = %d, want %d", fl, got, want)
				}
			}
			if st.Written != written {
				t.Fatalf("count-only kernels wrote %d elements", st.Written-written)
			}
			if st.Ops != st.MergeOps+st.GallopOps+st.BitsetOps+st.CountOps+st.UnrolledOps {
				t.Fatalf("path counters do not partition Ops: %+v", st)
			}
		}

		// Direct differential checks of the unrolled kernels, bypassing
		// dispatch thresholds so short and adversarial shapes hit them too.
		stk := Stats{Scratch: NewArena()}
		if got := unrolledIntersect(nil, a, b, &stk); !equal(got, wantI) {
			t.Fatalf("unrolledIntersect(%v, %v) = %v, want %v", a, b, got, wantI)
		}
		if got, want := unrolledIntersectCount(a, b, &stk), uint64(len(wantI)); got != want {
			t.Fatalf("unrolledIntersectCount(%v, %v) = %d, want %d", a, b, got, want)
		}
		if got, want := unrolledDifferenceCount(a, b, &stk), uint64(len(wantD)); got != want {
			t.Fatalf("unrolledDifferenceCount(%v, %v) = %d, want %d", a, b, got, want)
		}
		for _, x := range []uint32{0, lo % fuzzMax, fuzzMax - 1} {
			if got, want := Contains(a, x), linearContains(a, x); got != want {
				t.Fatalf("Contains(%v, %d) = %v, want %v", a, x, got, want)
			}
		}
		// The rank sum, whole and with b clipped to the window as a
		// collapsed leaf clips its base.
		for _, bw := range [][]uint32{b, Clip(b, lo%fuzzMax, hi%fuzzMax)} {
			var st Stats
			below, equal := RankPairs(a, bw, &st)
			if wantB, wantE := refRankPairs(a, bw); below != wantB || equal != wantE || st.Ops != 0 {
				t.Fatalf("RankPairs(%v, %v) = (%d, %d) in %d ops, want (%d, %d)", a, bw, below, equal, st.Ops, wantB, wantE)
			}
		}
	})
}

func equal(got, want []uint32) bool {
	return reflect.DeepEqual(append([]uint32{}, got...), append([]uint32{}, want...))
}

func linearContains(a []uint32, x uint32) bool {
	for _, v := range a {
		if v == x {
			return true
		}
	}
	return false
}
