package setops

import (
	"sync"
	"testing"
)

func TestArenaAllocAndReset(t *testing.T) {
	a := NewArena()
	s1 := a.Alloc(10)
	if len(s1) != 0 || cap(s1) < 10 {
		t.Fatalf("Alloc(10): len=%d cap=%d", len(s1), cap(s1))
	}
	s1 = append(s1, 1, 2, 3)
	s2 := a.Alloc(5)
	s2 = append(s2, 9, 9, 9, 9, 9)
	if &s1[:cap(s1)][cap(s1)-1] == &s2[0] {
		t.Fatal("allocations overlap")
	}
	if got := []uint32{s1[0], s1[1], s1[2]}; got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("first allocation corrupted by second: %v", s1)
	}
	a.Reset()
	s3 := a.AllocN(10)
	for i := range s3 {
		s3[i] = 7
	}
	if len(s3) != 10 {
		t.Fatalf("AllocN(10): len=%d", len(s3))
	}
}

func TestArenaGrowsAndCoalesces(t *testing.T) {
	a := NewArena()
	// Force several slabs: each request larger than the previous slab's
	// remaining space.
	for i := 0; i < 6; i++ {
		_ = a.AllocN(arenaMinSlab)
	}
	if len(a.slabs) < 2 {
		t.Fatalf("expected multiple slabs, got %d", len(a.slabs))
	}
	before := a.Footprint()
	a.Reset()
	if len(a.slabs) != 1 {
		t.Fatalf("Reset did not coalesce: %d slabs", len(a.slabs))
	}
	if a.Footprint() < before {
		t.Fatalf("coalescing shrank the arena: %d < %d", a.Footprint(), before)
	}
	// The coalesced slab serves the same working set without growing again.
	for i := 0; i < 6; i++ {
		_ = a.AllocN(arenaMinSlab)
	}
	if len(a.slabs) != 1 {
		t.Fatalf("coalesced slab too small: grew to %d slabs", len(a.slabs))
	}
}

// TestArenaNoCrossWorkerAliasing is the -race arena reuse check: workers
// with private arenas (as executors hold them) alloc, stamp, reset and
// realloc concurrently. The race detector proves no two arenas share
// memory; the sentinel verification proves no allocation within one arena
// overlaps another live one.
func TestArenaNoCrossWorkerAliasing(t *testing.T) {
	const workers = 8
	const rounds = 50
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(id uint32) {
			defer wg.Done()
			a := GetArena()
			defer a.Release()
			for r := 0; r < rounds; r++ {
				a.Reset()
				bufs := make([][]uint32, 8)
				for i := range bufs {
					bufs[i] = a.AllocN(64 * (i + 1))
					for j := range bufs[i] {
						bufs[i][j] = id<<16 | uint32(i)
					}
				}
				for i := range bufs {
					want := id<<16 | uint32(i)
					for j, v := range bufs[i] {
						if v != want {
							t.Errorf("worker %d round %d: buf %d word %d = %#x, want %#x (aliasing)", id, r, i, j, v, want)
							return
						}
					}
				}
			}
		}(uint32(wk))
	}
	wg.Wait()
}

func TestGetArenaReturnsResetArena(t *testing.T) {
	a := GetArena()
	_ = a.AllocN(100)
	a.Release()
	b := GetArena()
	defer b.Release()
	if b.off != 0 {
		t.Fatalf("pooled arena not reset: off=%d", b.off)
	}
}
