package setops

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks for the adaptive kernels. CI runs them once
// (-benchtime 1x) as a smoke test for panics and unexpected allocations;
// what a kernel is worth end to end is the repo benchmark's call
// (benchmark/).

var sink uint64

func benchSets(small, big, max int, seed int64) ([]uint32, []uint32) {
	r := rand.New(rand.NewSource(seed))
	return denseSet(r, small, max), denseSet(r, big, max)
}

func BenchmarkIntersectBalanced(b *testing.B) {
	x, y := benchSets(4096, 4096, 1<<20, 1)
	dst := make([]uint32, 0, 4096)
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Intersect(dst, x, y, &st)
	}
	sink += uint64(len(dst))
}

func BenchmarkIntersectSkewedGallop(b *testing.B) {
	x, y := benchSets(128, 1<<17, 1<<20, 2)
	dst := make([]uint32, 0, 128)
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Intersect(dst, x, y, &st)
	}
	sink += uint64(len(dst))
}

func BenchmarkIntersectSkewedNaive(b *testing.B) {
	x, y := benchSets(128, 1<<17, 1<<20, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += uint64(len(RefIntersect(x, y)))
	}
}

func BenchmarkIntersectBitset(b *testing.B) {
	x, y := benchSets(128, 1<<17, 1<<20, 3)
	words := toBits(y, 1<<20)
	dst := make([]uint32, 0, 128)
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = IntersectBits(dst, x, words, &st)
	}
	sink += uint64(len(dst))
}

func BenchmarkIntersectCountWindow(b *testing.B) {
	x, y := benchSets(4096, 4096, 1<<20, 4)
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += IntersectCountF(x, y, Window(1<<10, 1<<19), &st)
	}
}

func BenchmarkDifferenceBalanced(b *testing.B) {
	x, y := benchSets(4096, 4096, 1<<20, 5)
	dst := make([]uint32, 0, 4096)
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Difference(dst, x, y, &st)
	}
	sink += uint64(len(dst))
}

func BenchmarkDifferenceSkewedGallop(b *testing.B) {
	x, y := benchSets(128, 1<<17, 1<<20, 6)
	dst := make([]uint32, 0, 128)
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Difference(dst, x, y, &st)
	}
	sink += uint64(len(dst))
}

func BenchmarkAndCount(b *testing.B) {
	x, y := benchSets(1<<16, 1<<17, 1<<20, 7)
	xw, yw := toBits(x, 1<<20), toBits(y, 1<<20)
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += AndCountF(xw, yw, All(), &st)
	}
}

// A collapsed leaf's rank sum: a parent's candidates against a base of
// comparable size (the merge), and three candidates against a hub row (the
// galloping walk). It cycles through 64 pairs, so that no branch predictor
// learns one pair by heart.
func BenchmarkRankPairs(b *testing.B) {
	for _, bc := range []struct {
		name       string
		small, big int
	}{{"merge", 48, 64}, {"gallop", 3, 1 << 12}} {
		b.Run(bc.name, func(b *testing.B) {
			var xs, ys [64][]uint32
			for i := range xs {
				xs[i], ys[i] = benchSets(bc.small, bc.big, 1<<10, int64(14+i))
			}
			var st Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				below, equal := RankPairs(xs[i%64], ys[i%64], &st)
				sink += below + equal
			}
		})
	}
}

func BenchmarkCountWindowArithmetic(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	x := denseSet(r, 1<<16, 1<<20)
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += CountF(x, Window(1<<8, 1<<19), &st)
	}
}

// Dense inputs within a narrow ID range: long runs of equal elements, the
// balanced path's worst case (no block ever skips).
func BenchmarkIntersectDense(b *testing.B) {
	x, y := benchSets(4096, 4096, 1<<14, 9)
	dst := make([]uint32, 0, 4096)
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Intersect(dst, x, y, &st)
	}
	sink += uint64(len(dst))
}

// Arena allocation trajectory: carve a worker's worth of scratch, reset,
// repeat. Steady state must be zero allocs/op.
func BenchmarkArenaCarveReset(b *testing.B) {
	a := NewArena()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Reset()
		for j := 0; j < 8; j++ {
			buf := a.Alloc(4096)
			sink += uint64(cap(buf))
		}
	}
}
