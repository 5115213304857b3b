package engine

import (
	"context"
	"sync"
	"testing"

	"morphing/internal/dataset"
	"morphing/internal/pattern"
	"morphing/internal/plan"
	"morphing/internal/refmatch"
)

// TestPooledArenaConcurrentExecutions is the arena-reuse race check: many
// concurrent executions over one shared graph, each drawing pooled workers
// whose private arenas are reset and recycled between runs. Under -race
// this proves no arena (or carved buffer) is ever visible to two workers
// at once; the count assertions prove reset/reuse never leaks one
// execution's scratch into the next.
func TestPooledArenaConcurrentExecutions(t *testing.T) {
	g, err := dataset.ErdosRenyi(200, 22, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Reference counts from the brute-force oracle, which shares no code
	// with the worker pool.
	plans := make([]*plan.Plan, 0, 2)
	want := make([]uint64, 0, 2)
	for _, p := range []*pattern.Pattern{pattern.Triangle(), pattern.House()} {
		pl, err := plan.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		plans, want = append(plans, pl), append(want, refmatch.Count(g, p))
	}
	tr, err := plan.MergePlans(plans)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 6
	const iters = 3
	var wg sync.WaitGroup
	for gr := 0; gr < goroutines; gr++ {
		wg.Add(1)
		go func(gr int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				// Alternate pattern per iteration so pooled workers get
				// reshaped for different k/plan shapes, not just rebound.
				i := (gr + it) % len(plans)
				n, _, err := BacktrackCtx(context.Background(), g, plans[i], nil, ExecOptions{Threads: 2}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if n != want[i] {
					t.Errorf("goroutine %d iter %d plan %d: count %d, want %d", gr, it, i, n, want[i])
					return
				}
				counts, _, err := BacktrackTrieCtx(context.Background(), g, tr, ExecOptions{Threads: 2}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				for j := range counts {
					if counts[j] != want[j] {
						t.Errorf("goroutine %d iter %d trie plan %d: count %d, want %d", gr, it, j, counts[j], want[j])
						return
					}
				}
			}
		}(gr)
	}
	wg.Wait()
}
