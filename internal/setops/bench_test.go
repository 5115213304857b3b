package setops

import (
	"math/rand"
	"strconv"
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

// cycled is how many distinct operand sets a kernel benchmark cycles
// through: over 64, the branch predictor learned the branchy searches and
// merges by heart, and a benchmark could point the opposite way from the
// workload.
const cycled = 1024

// benchPairs returns 32 sets of either size, drawn as benchSets does: pair
// i of a benchmark is xs[i/32] against ys[i%32], so it cycles through
// 1,024 distinct pairs while holding only 64 sets (a few MiB would not
// stay in cache, and the benchmark would time memory instead).
func benchPairs(small, big, max int, seed int64) (xs, ys [32][]uint32) {
	for i := range xs {
		xs[i], ys[i] = benchSets(small, big, max, seed*1000+int64(i))
	}
	return xs, ys
}

func BenchmarkIntersectBalanced(b *testing.B) {
	xs, ys := benchPairs(4096, 4096, 1<<20, 1)
	dst := make([]uint32, 0, 4096)
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % cycled
		dst = Intersect(dst, xs[k/32], ys[k%32], &st)
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
	xs, ys := benchPairs(4096, 4096, 1<<20, 4)
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % cycled
		sink += IntersectCountF(xs[k/32], ys[k%32], Window(1<<10, 1<<19), &st)
	}
}

func BenchmarkDifferenceBalanced(b *testing.B) {
	xs, ys := benchPairs(4096, 4096, 1<<20, 5)
	dst := make([]uint32, 0, 4096)
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % cycled
		dst = Difference(dst, xs[k/32], ys[k%32], &st)
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
// galloping walk), over 1,024 distinct pairs: every set of candidates is
// its own, and the merge's bases are too.
func BenchmarkRankPairs(b *testing.B) {
	for _, bc := range []struct {
		name       string
		small, big int
	}{{"merge", 48, 64}, {"gallop", 3, 1 << 12}} {
		b.Run(bc.name, func(b *testing.B) {
			var xs, ys [cycled][]uint32
			for i := range xs {
				xs[i], ys[i] = benchSets(bc.small, bc.big, 1<<10, int64(14+i))
				if bc.big > 64 && i >= 32 {
					ys[i] = ys[i%32] // 32 hub rows of 4,096 elements, against 1,024 candidate sets
				}
			}
			var st Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % cycled
				below, equal := RankPairs(xs[k], ys[k], &st)
				sink += below + equal
			}
		})
	}
}

// A count-only level with nothing left to intersect: two searches into one
// row of 65,536 elements, at 1,024 distinct windows.
func BenchmarkCountWindowArithmetic(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	x := denseSet(r, 1<<16, 1<<20)
	var fs [cycled]Filter
	for i := range fs {
		lo := uint32(r.Intn(1 << 19))
		fs[i] = Window(lo, lo+uint32(r.Intn(1<<19)))
	}
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += CountF(x, fs[i%cycled], &st)
	}
}

// Dense inputs within a narrow ID range: long runs of equal elements, the
// balanced path's worst case (no block ever skips).
func BenchmarkIntersectDense(b *testing.B) {
	xs, ys := benchPairs(4096, 4096, 1<<14, 9)
	dst := make([]uint32, 0, 4096)
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % cycled
		dst = Intersect(dst, xs[k/32], ys[k%32], &st)
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

// The count-only difference at the last level of a vertex-induced plan, at
// the operands mc4-direct measures: a raw base of about 45 elements whose
// window's low end cuts about half of it, the anti-edge's row of about 15,
// and an open high end. It cycles through 1,024 pairs: over 64, the branch
// predictor learned the old branchy searches and merge by heart, and the
// benchmark showed none of the gain the workload measures.
func BenchmarkDifferenceCountLeaf(b *testing.B) {
	xs, ys, los := leafPairs()
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % cycled
		sink += DifferenceCountF(xs[k], ys[k], Filter{Lo: los[k], Hi: ^uint32(0)}, &st)
	}
}

// leafPairs are BenchmarkDifferenceCountLeaf's operands: per pair a base,
// a row, and the window's low end.
func leafPairs() (xs, ys [cycled][]uint32, los [cycled]uint32) {
	for i := range xs {
		xs[i], ys[i] = benchSets(45, 15, 256, int64(100+i))
		los[i] = xs[i][len(xs[i])/2]
	}
	return xs, ys, los
}

// The same count as the executor's marked leaf runs it, at the same 1,024
// pairs: the base's size in the window less the row's elements that probe
// into the base's bitmap. The leaf marks a base once and counts against it
// for every candidate of its parent, so the marks are made before the
// clock starts.
func BenchmarkMarkedDifferenceLeaf(b *testing.B) {
	xs, ys, los := leafPairs()
	var words [cycled][]uint64
	for i := range words {
		words[i] = toBits(xs[i], 256)
	}
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % cycled
		f := Filter{Lo: los[k], Hi: ^uint32(0)}
		sink += uint64(len(Clip(xs[k], f.Lo, f.Hi))) - IntersectBitsCountF(ys[k], words[k], f, &st)
	}
}

// SearchAbove over 16, 256 and 4,096 elements, at 1,024 random bounds so
// that no branch predictor learns the path of one search.
func BenchmarkSearchAbove(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			r := rand.New(rand.NewSource(int64(n)))
			a := denseSet(r, n, 16*n)
			var lowers [1024]uint32
			for i := range lowers {
				lowers[i] = uint32(r.Intn(16 * n))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += uint64(SearchAbove(a, lowers[i%1024]))
			}
		})
	}
}

// A count leaf's held base clipped at the window's low end, as mc4-direct
// delivers them: 1,024 bases of about 45 elements, each followed by the
// ascending low ends its leaf sees under it — one past each candidate of
// the parent, which walks the same set, skipping a few now and then. The
// sequences run one after the other, as the executor runs them, so that no
// branch predictor learns one input. /search is what Clip does, a search of
// the whole base per count; /cursor resumes where the last count cut the
// same base, walking at most four elements before it searches the rest
// (the executor's trieWorker.held).
func BenchmarkHeldBaseClip(b *testing.B) {
	type step struct {
		base int // index into bases: a new one starts a new generation
		lo   uint32
	}
	r := rand.New(rand.NewSource(11))
	bases := make([][]uint32, cycled)
	var steps []step
	for k := range bases {
		bases[k] = denseSet(r, 45, 256)
		for j := r.Intn(len(bases[k]) / 2); j < len(bases[k]); j++ {
			steps = append(steps, step{k, bases[k][j] + 1})
			if r.Intn(10) == 0 {
				j += r.Intn(8)
			}
		}
	}
	b.Run("search", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := steps[i%len(steps)]
			sink += uint64(len(Clip(bases[s.base], s.lo, ^uint32(0))))
		}
	})
	b.Run("cursor", func(b *testing.B) {
		key, lo, at := -1, uint32(0), 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := steps[i%len(steps)]
			base := bases[s.base]
			if s.base != key || s.lo < lo {
				key, at = s.base, 0
			}
			for end := min(at+4, len(base)); at < end && base[at] < s.lo; {
				at++
			}
			if at < len(base) && base[at] < s.lo {
				at += SearchAbove(base[at:], s.lo-1)
			}
			lo = s.lo
			sink += uint64(len(base) - at)
		}
	})
}
