// Package setops implements the sorted-set primitives at the heart of
// pattern-aware matching engines: intersections of adjacency lists build
// candidate sets for regular edges, differences implement anti-edges, and
// bounded variants implement symmetry-breaking partial orders.
//
// The package is an *adaptive kernel library*: every public operation
// dispatches between specialized execution paths by input shape.
//
//   - merge: the classic two-pointer merge, kept for inputs too short to
//     amortize anything cleverer. Linear in len(a)+len(b).
//   - unrolled: a branch-minimized, 4-wide unrolled merge (unrolled.go)
//     that replaces the data-dependent branches of the scalar merge with
//     flag-materializing arithmetic; every unlabeled count-only merge, and
//     intersection once its small side reaches unrolledMinLen.
//   - gallop: exponential (doubling) search of the larger side for each
//     element of the smaller side, best when one side is much smaller
//     (|a| ≪ |b|). O(|a|·log(|b|/|a|)) instead of O(|a|+|b|).
//   - bitset: word-indexed membership probes against a bitmap adjacency
//     row (see graph.Graph.HubBits), O(1) per element of the list side
//     and O(words) for bitmap×bitmap counting.
//   - count-only: variants that never write a destination slice, fusing
//     the symmetry-breaking window and the label filter into the kernel.
//     Matching executors use them at the last level, where the candidate
//     set is consumed solely to produce a count.
//
// Every primitive is instrumented through a Stats sink because the paper's
// evaluation reports set-operation work directly (Fig. 12c-d, Fig. 13b):
// morphing wins by trading expensive set differences for cheaper plans, and
// the counters make that trade observable. Stats additionally counts each
// dispatch path taken and the elements written to destination slices, so a
// run can prove claims like "the final level materialized nothing".
package setops

// Dispatch thresholds. Galloping pays off once the larger side dwarfs the
// smaller one: each element of the small side costs O(log gap) probes
// instead of a linear scan of the gap, but the doubling probes have worse
// locality than a straight merge, so the ratio must be large enough to
// amortize the cache misses. 8:1 with a 64-element floor is conservative.
// Fitted 2026-10 (ROADMAP item 3(c)): kept, and Intersect's unrolledMinLen =
// 16 with them. The per-path counters of the cost-model fit's 40 counting
// passes (costmodel's TestFitWeights -v: the serve pool, the 4-motifs and
// sc's list, direct and forced, on MI x0.01 and MG x0.003) read 7,786,232 set
// operations over 251,395,451 elements: 6,442,520 count-only, and of the
// materializing rest 935,929 merged, 146,506 unrolled, 260,674 bitmap
// probes and 603 galloped. On graphs whose longest row is 175 vertices the
// 8:1 ratio over a 64-element floor is met once in thirteen thousand calls,
// so no setting of it can move a benchmark row; the 112 M-edge tier is
// where a refit would have something to measure.
const (
	gallopRatio  = 8  // gallop when len(big) >= gallopRatio*len(small)
	gallopMinLen = 64 // never gallop into sides smaller than this
)

// shouldGallop reports whether the small/big size ratio clears the
// galloping threshold.
func shouldGallop(small, big int) bool {
	return big >= gallopMinLen && big >= gallopRatio*small
}

// Stats accumulates set-operation work. Engines keep one Stats per worker
// and merge them; the zero value is ready to use.
//
// Ops and Elems are the paper-facing aggregate counters (every operation
// increments Ops; Elems charges the elements actually examined, so a
// galloping intersection charges its probe count rather than the length it
// skipped). The per-path counters break Ops down by dispatch decision, and
// Written counts elements appended to destination slices — count-only
// kernels never increment it. RankPairs, the rank sum the trie executor
// counts a collapsed leaf with, charges what it walks to Elems the same way
// and counts no Op: it replaces window arithmetic, not a set operation.
type Stats struct {
	Ops   uint64 // number of set operations executed
	Elems uint64 // input elements examined across all operations

	MergeOps    uint64 // operations that ran the two-pointer merge path
	GallopOps   uint64 // operations that ran the galloping path
	BitsetOps   uint64 // operations that probed a bitmap adjacency row
	CountOps    uint64 // count-only operations (no destination writes)
	UnrolledOps uint64 // operations that ran the branchless unrolled merge
	Written     uint64 // elements written to destination slices

	// Scratch is the worker's arena, when one is attached: a destination
	// slice too small for its kernel regrows from it, from the heap when it
	// is nil. It has no say in which kernel runs. Stats is per-worker, so
	// the arena inherits the same single-owner discipline.
	Scratch *Arena
}

// Add merges other into s. Scratch is identity, not data — it never
// transfers on merge.
func (s *Stats) Add(other Stats) {
	s.Ops += other.Ops
	s.Elems += other.Elems
	s.MergeOps += other.MergeOps
	s.GallopOps += other.GallopOps
	s.BitsetOps += other.BitsetOps
	s.CountOps += other.CountOps
	s.UnrolledOps += other.UnrolledOps
	s.Written += other.Written
}

// SearchAbove returns the index of the first element of sorted slice a
// strictly greater than lower, or len(a) when no element qualifies. It is
// the one binary search behind window clipping, suffix filtering and
// membership probes. Branch-free: base moves by a mask (SETcc), not a jump.
func SearchAbove(a []uint32, lower uint32) int {
	base, n := 0, len(a)
	for n > 0 {
		half := n - n>>1
		base += half & -b2i(a[base+half-1] <= lower)
		n >>= 1
	}
	return base
}

// searchGE returns the index of the first element >= x (len(a) when none).
func searchGE(a []uint32, x uint32) int {
	if x == 0 {
		return 0
	}
	return SearchAbove(a, x-1)
}

// Clip narrows sorted slice a to the window [lo, hi), returning a subslice.
// It searches only a bound that cuts a: an open hi costs one comparison.
func Clip(a []uint32, lo, hi uint32) []uint32 {
	if len(a) > 0 && a[0] < lo {
		a = a[SearchAbove(a, lo-1):]
	}
	if len(a) > 0 && a[len(a)-1] >= hi {
		a = a[:searchGE(a, hi)]
	}
	return a
}

// Contains reports whether sorted slice a contains x using binary search.
func Contains(a []uint32, x uint32) bool {
	i := searchGE(a, x)
	return i < len(a) && a[i] == x
}

// GallopGE returns the smallest index k in [from, len(b)) with b[k] >= x,
// or len(b) when none, advancing by doubling steps before binary-searching
// the final gap. probes accumulates the number of elements examined, which
// is what the galloping paths charge to Stats.Elems.
func GallopGE(b []uint32, from int, x uint32, probes *uint64) int {
	n := len(b)
	if from >= n {
		return n
	}
	*probes++
	if b[from] >= x {
		return from
	}
	// b[from] < x: double the step until we overshoot (or run out).
	step := 1
	for from+step < n && b[from+step] < x {
		*probes++
		step <<= 1
	}
	lo := from + step/2 + 1 // b[from+step/2] < x held (or step/2 == 0)
	hi := from + step       // b[hi] >= x, or hi >= n
	if hi > n {
		hi = n
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		*probes++
		if b[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
