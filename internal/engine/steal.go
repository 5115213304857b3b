package engine

import "sync/atomic"

// Tail work stealing. The atomic block cursor balances load at block
// granularity, but once it runs dry a worker can stay pinned under a heavy
// block (typically one holding hub vertices) while its siblings idle. So
// each worker advertises its in-flight root range as a vertexRange, and an
// idle worker takes the upper half of the range with the most unclaimed
// vertices as its own range, stealable in turn. Halving repeats down to
// single roots: no worker idles while a sibling holds two unclaimed roots.
//
// Soundness. A range is one word pos<<32|hi: the owner's next advances
// pos, a thief's stealHalf lowers hi, and only the owner re-arms it, after
// next found it empty. A word (p, h) means vertices p..h-1 are unclaimed
// and belong to this range. Within an arming pos only grows and hi only
// shrinks, and a re-arming holds only unclaimed vertices while the range
// it replaces was emptied by claiming p; so no word recurs after a claim,
// no CAS succeeds against a stale reading, and every root is claimed by
// exactly one next.

// vertexRange is a claimable range of level-0 root vertices. The owner
// claims vertices one at a time with next; idle workers may steal the
// upper half of what remains with stealHalf. Position and limit share one
// atomic word so claims and steals linearize against each other.
type vertexRange struct {
	bits atomic.Uint64 // pos<<32 | hi
}

// reset arms the range with [lo, hi).
func (r *vertexRange) reset(lo, hi uint32) {
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

// stealHalf takes [mid, end) off a range with at least two unclaimed
// vertices [pos, end), leaving the owner [pos, mid); a range with one left,
// or none, is never split. A CAS lost to the owner's next or to another
// thief re-reads the word and retries.
func (r *vertexRange) stealHalf() (lo, hi uint32, ok bool) {
	for {
		b := r.bits.Load()
		pos, end := uint32(b>>32), uint32(b)
		if end < pos+2 {
			return 0, 0, false
		}
		mid := pos + (end-pos)/2
		if r.bits.CompareAndSwap(b, uint64(pos)<<32|uint64(mid)) {
			return mid, end, true
		}
	}
}

// stealFrom steals the upper half of the sibling range (self excluded)
// with the most unclaimed vertices. A failed stealHalf means that range
// fell below two vertices, which takes a sibling's claim or steal, so the
// rescan ends.
func stealFrom(ranges []*vertexRange, self int) (lo, hi uint32, ok bool) {
	for {
		best, bestRem := -1, uint32(1)
		for i, r := range ranges {
			if i == self {
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
