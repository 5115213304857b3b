package engine

import "sync/atomic"

// Tail work stealing. The atomic block cursor balances load at block
// granularity, but once it runs dry a single worker can stay pinned under
// a heavy block (typically one holding hub vertices) while its siblings
// idle — the straggler signature Stats.Workers' busy times expose. To
// shave that tail, each worker advertises its in-flight level-0
// block as a stealable vertexRange: when the cursor is exhausted, an idle
// worker splits the heaviest remaining range in half and runs the upper
// half itself. Splitting is bounded — at most once per claimed block, and
// never below minStealRange vertices — so stealing cannot degenerate into
// contention on tiny ranges.

// minStealRange is the smallest remaining range worth splitting: below
// this the synchronization outweighs the imbalance.
const minStealRange = 4

// vertexRange is a claimable range of level-0 root vertices. The owner
// claims vertices one at a time with next; idle workers may steal the
// upper half of what remains with stealHalf. Position and limit share one
// atomic word so claim and steal linearize against each other.
type vertexRange struct {
	bits  atomic.Uint64 // pos<<32 | hi
	split atomic.Bool   // true once this block has been split (or is a stolen half)
}

// reset arms the range with [lo, hi). Stolen halves are reset with
// splittable=false so a block is split at most once end to end.
func (r *vertexRange) reset(lo, hi uint32, splittable bool) {
	r.split.Store(!splittable)
	r.bits.Store(uint64(lo)<<32 | uint64(hi))
}

// next claims the next vertex, returning false when the range (possibly
// shrunk by a thief) is exhausted.
func (r *vertexRange) next() (uint32, bool) {
	for {
		b := r.bits.Load()
		pos, hi := uint32(b>>32), uint32(b)
		if pos >= hi {
			return 0, false
		}
		if r.bits.CompareAndSwap(b, uint64(pos+1)<<32|uint64(hi)) {
			return pos, true
		}
	}
}

// remaining returns how many vertices are left unclaimed.
func (r *vertexRange) remaining() uint32 {
	b := r.bits.Load()
	pos, hi := uint32(b>>32), uint32(b)
	if pos >= hi {
		return 0
	}
	return hi - pos
}

// stealHalf splits off the upper half of the remaining range. It wins the
// per-block split flag first — holding it makes this thief the only
// writer of hi, so the CAS below can only lose to the owner advancing
// pos, and retrying terminates (pos is monotone). A steal that finds
// fewer than minStealRange vertices left still consumes the block's only
// split: a range that thin is not worth a second look.
func (r *vertexRange) stealHalf() (lo, hi uint32, ok bool) {
	if !r.split.CompareAndSwap(false, true) {
		return 0, 0, false
	}
	for {
		b := r.bits.Load()
		pos, end := uint32(b>>32), uint32(b)
		if pos >= end || end-pos < minStealRange {
			return 0, 0, false
		}
		mid := pos + (end-pos)/2
		if r.bits.CompareAndSwap(b, uint64(pos)<<32|uint64(mid)) {
			return mid, end, true
		}
	}
}

// stealFrom picks the heaviest still-splittable in-flight range among the
// siblings (self excluded) and steals its upper half. A lost race marks
// the victim split, so the rescan loop terminates.
func stealFrom(ranges []*vertexRange, self int) (lo, hi uint32, ok bool) {
	for {
		best, bestRem := -1, uint32(minStealRange-1)
		for i, r := range ranges {
			if i == self || r.split.Load() {
				continue
			}
			if rem := r.remaining(); rem > bestRem {
				best, bestRem = i, rem
			}
		}
		if best == -1 {
			return 0, 0, false
		}
		if lo, hi, ok = ranges[best].stealHalf(); ok {
			return lo, hi, true
		}
	}
}
