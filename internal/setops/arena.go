package setops

import "sync"

// Arena is a per-worker slab allocator for set-operation scratch: the
// prefix-set buffers every matching level double-buffers through and the
// destination slices of IntersectNeighbors-style chains.
//
// The problem it solves is allocation trajectory, not allocation speed:
// executors create a full complement of maxDegree-capacity buffers per
// worker per execution, which at serving rates (thousands of queries per
// second, tens of workers each) turns the scratch churn into the dominant
// GC input. An Arena carves those buffers out of a small list of slabs
// that survive Reset, so a pooled arena reaches a steady state where
// repeated executions allocate nothing.
//
// Ownership and lifetime rules (see DESIGN.md §16):
//
//   - An Arena belongs to exactly one worker goroutine at a time. Arenas
//     have no internal synchronization; handing one to two goroutines is
//     a race, full stop.
//   - Alloc returns a zero-length slice with at least the requested
//     capacity. The caller owns it until the next Reset; after Reset every
//     previously returned slice aliases memory future Allocs will reuse,
//     so a slice must never outlive the Reset that reclaims it.
//   - Growing an arena slice with append beyond its capacity silently
//     migrates it to the GC heap (append reallocates). Callers therefore
//     size requests by a real bound (maxDegree for adjacency scratch) so
//     growth never happens on the hot path.
//
// The zero value is ready to use. GetArena/Release run arenas through a
// package pool so slabs survive across executions; a released arena must
// not be touched again by the releasing goroutine.
type Arena struct {
	slabs [][]uint32 // retained so Reset can rewind without freeing
	cur   []uint32   // active slab (last of slabs)
	off   int        // allocation offset into cur

	grabs  uint64 // Alloc calls served (telemetry)
	resets uint64 // Reset calls (telemetry)
}

// arenaMinSlab is the smallest slab, in uint32s (16 KiB). Slabs double
// from there, so an arena reaches any working-set size in O(log) slabs.
const arenaMinSlab = 1 << 12

// NewArena returns an empty arena. Most callers should prefer GetArena,
// which recycles slabs through the package pool.
func NewArena() *Arena { return &Arena{} }

// Alloc returns a zero-length slice with capacity at least n, carved from
// the arena's slabs. The slice is valid until the next Reset.
func (a *Arena) Alloc(n int) []uint32 {
	a.grabs++
	if cap(a.cur)-a.off < n {
		a.grow(n)
	}
	s := a.cur[a.off : a.off : a.off+n]
	a.off += n
	return s
}

// AllocN is Alloc with the returned slice pre-extended to length n. The
// contents are whatever the slab last held — callers must overwrite
// before reading (match/binding vectors do by construction).
func (a *Arena) AllocN(n int) []uint32 {
	return a.Alloc(n)[:n]
}

// grow appends a slab big enough for n, doubling the last slab size so
// total slab count stays logarithmic in the working set.
func (a *Arena) grow(n int) {
	size := arenaMinSlab
	if len(a.slabs) > 0 {
		size = 2 * cap(a.slabs[len(a.slabs)-1])
	}
	if size < n {
		size = n
	}
	slab := make([]uint32, size)
	a.slabs = append(a.slabs, slab)
	a.cur = slab
	a.off = 0
}

// Reset rewinds the arena to empty while keeping its slabs, invalidating
// every slice previously returned by Alloc. Only the owning worker may
// call it, and only when no live set operation holds arena scratch.
func (a *Arena) Reset() {
	a.resets++
	if len(a.slabs) > 0 {
		a.cur = a.slabs[0]
	}
	a.off = 0
	// Deliberately NOT zeroing slab contents: arena memory is scratch and
	// every consumer overwrites before reading. Rewinding to the first
	// slab (rather than the last) keeps allocation order deterministic,
	// which the aliasing tests rely on.
	if len(a.slabs) > 1 {
		// Coalesce: replace many doubling slabs with one slab of the
		// combined size, so steady state is a single contiguous slab and
		// buffers allocated after a Reset pack tightly again.
		total := 0
		for _, s := range a.slabs {
			total += cap(s)
		}
		slab := make([]uint32, total)
		a.slabs = append(a.slabs[:0], slab)
		a.cur = slab
	}
}

// Footprint returns the bytes of uint32 slab the arena currently retains.
func (a *Arena) Footprint() uint64 {
	var n uint64
	for _, s := range a.slabs {
		n += uint64(cap(s)) * 4
	}
	return n
}

// arenaPool recycles arenas (and their slabs) across executions. sync.Pool
// keeps this GC-cooperative: idle slabs are reclaimable under pressure.
var arenaPool = sync.Pool{New: func() any { return &Arena{} }}

// GetArena returns a reset arena from the package pool.
func GetArena() *Arena {
	a := arenaPool.Get().(*Arena)
	a.Reset()
	return a
}

// Release returns the arena to the pool. The caller must hold no live
// slices into it; the next GetArena may hand its slabs to another
// goroutine.
func (a *Arena) Release() {
	arenaPool.Put(a)
}
