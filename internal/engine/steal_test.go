package engine

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"morphing/internal/faultinject"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/plan"
)

func TestVertexRangeClaim(t *testing.T) {
	var r vertexRange
	r.reset(3, 7)
	for want := uint32(3); want < 7; want++ {
		v, ok := r.next()
		if !ok || v != want {
			t.Fatalf("next() = %d,%v, want %d,true", v, ok, want)
		}
	}
	if _, ok := r.next(); ok {
		t.Fatal("exhausted range still yields vertices")
	}
}

func TestVertexRangeStealHalf(t *testing.T) {
	var r vertexRange
	r.reset(0, 100)
	for i := 0; i < 10; i++ {
		r.next()
	}
	// Every steal takes the upper half of what is left, and a range stays
	// stealable while two or more vertices remain: [10,100) loses [55,100),
	// then [32,55), then [21,32).
	for _, want := range [][2]uint32{{55, 100}, {32, 55}, {21, 32}} {
		lo, hi, ok := r.stealHalf()
		if !ok || lo != want[0] || hi != want[1] {
			t.Fatalf("stealHalf() = [%d,%d),%v, want [%d,%d),true", lo, hi, ok, want[0], want[1])
		}
		if rem := r.remaining(); rem != want[0]-10 {
			t.Fatalf("victim has %d left, want %d", rem, want[0]-10)
		}
	}
	// The owner's claims end exactly at the reduced bound.
	for want := uint32(10); want < 21; want++ {
		if v, ok := r.next(); !ok || v != want {
			t.Fatalf("next() = %d,%v, want %d,true", v, ok, want)
		}
	}
	if v, ok := r.next(); ok {
		t.Fatalf("owner claimed %d past the reduced bound 21", v)
	}
}

// A range with one vertex left, or none, is never split.
func TestVertexRangeStealRespectsMinimum(t *testing.T) {
	var r vertexRange
	r.reset(5, 7)
	if lo, hi, ok := r.stealHalf(); !ok || lo != 6 || hi != 7 {
		t.Fatalf("two-vertex range: stealHalf() = [%d,%d),%v, want [6,7),true", lo, hi, ok)
	}
	if _, _, ok := r.stealHalf(); ok {
		t.Fatal("stole from a range with one vertex left")
	}
	if v, ok := r.next(); !ok || v != 5 {
		t.Fatalf("next() = %d,%v, want 5,true", v, ok)
	}
	if _, _, ok := r.stealHalf(); ok {
		t.Fatal("stole from an exhausted range")
	}
	if _, _, ok := stealFrom([]*vertexRange{&r, new(vertexRange)}, -1); ok {
		t.Fatal("stealFrom split a range with fewer than two vertices left")
	}
}

// TestVertexRangeConcurrentSteals races one owner claiming [0, 10 000)
// against three thieves that keep stealing from every range — the owner's
// and each other's loot — and claim what they stole, the way triePass.run
// does. Every vertex must be claimed exactly once, and nothing outside the
// range at all.
func TestVertexRangeConcurrentSteals(t *testing.T) {
	const n, thieves = 10000, 3
	stolen := 0
	for seed := int64(1); seed <= 50; seed++ {
		ranges := make([]*vertexRange, 1+thieves)
		for i := range ranges {
			ranges[i] = new(vertexRange)
		}
		ranges[0].reset(0, n)
		claimed := make([][]uint32, len(ranges))
		var wg sync.WaitGroup
		for w := range ranges {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*int64(len(ranges)) + int64(w)))
				claim := func() {
					for {
						v, ok := ranges[w].next()
						if !ok {
							return
						}
						claimed[w] = append(claimed[w], v)
						if rng.Intn(64) == 0 {
							runtime.Gosched()
						}
					}
				}
				claim() // the owner mines its range; a thief's starts empty
				for {
					lo, hi, ok := stealFrom(ranges, w)
					if !ok {
						if ranges[0].remaining() > 0 && w != 0 {
							runtime.Gosched() // the owner may not have started yet
							continue
						}
						return
					}
					ranges[w].reset(lo, hi)
					claim()
				}
			}(w)
		}
		wg.Wait()
		seen := make([]int, n)
		for w, vs := range claimed {
			if w > 0 {
				stolen += len(vs)
			}
			for _, v := range vs {
				if v >= n {
					t.Fatalf("seed %d: claimed %d outside [0,%d)", seed, v, n)
				}
				seen[v]++
			}
		}
		for v, c := range seen {
			if c != 1 {
				t.Fatalf("seed %d: vertex %d claimed %d times", seed, v, c)
			}
		}
	}
	if stolen == 0 {
		t.Error("no thief claimed a vertex in 50 seeds")
	}
}

// skewedGraph packs nearly all mining work into the lowest-index
// vertices: a dense head cluster followed by a long sparse ring. The
// head lands in one level-0 block, making that block's owner the
// straggler tail stealing exists for.
func skewedGraph(t *testing.T, head, tail int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var edges [][2]uint32
	for u := 0; u < head; u++ {
		for v := u + 1; v < head; v++ {
			if rng.Float64() < 0.5 {
				edges = append(edges, [2]uint32{uint32(u), uint32(v)})
			}
		}
	}
	n := head + tail
	for i := 0; i < tail; i++ {
		u := uint32(head + i)
		v := uint32(head + (i+1)%tail)
		if u != v {
			edges = append(edges, [2]uint32{u, v})
		}
	}
	g, err := graph.FromEdges(n, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTailStealingOnSkewedGraph is the satellite's acceptance check: on a
// graph whose work is concentrated in one block, idle workers split the
// straggler's remaining range (TailSteals > 0) and the per-worker match
// concentration drops below one — every 4-clique lies in the head, inside
// the first block, so without stealing its owner would find them all —
// while the count never changes. Whether a steal lands in any single run
// depends on the scheduler (on a one-core machine the straggler may finish
// unpreempted), so the steal, skew and spread assertions each accept any
// of several attempts; count equality with the one-worker oracle must hold
// on every attempt.
func TestTailStealingOnSkewedGraph(t *testing.T) {
	g := skewedGraph(t, 120, 4000)
	pl, err := plan.Build(pattern.FourClique())
	if err != nil {
		t.Fatal(err)
	}
	run := func(threads int) (uint64, *Stats) {
		c, st, err := BacktrackCtx(context.Background(), g, pl, nil, ExecOptions{Threads: threads}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c, st
	}
	share := func(st *Stats) float64 {
		var max, sum uint64
		for _, w := range st.Workers {
			sum += w.Matches
			if w.Matches > max {
				max = w.Matches
			}
		}
		if sum == 0 {
			return 0
		}
		return float64(max) / float64(sum)
	}
	// Halving repeats inside the head block, so given a second core at
	// least three of the four workers find 4-cliques; a rule that splits
	// each block once tops out at two.
	finders := func(st *Stats) (n int) {
		for _, w := range st.Workers {
			if w.Matches > 0 {
				n++
			}
		}
		return n
	}
	want, _ := run(1)
	ok, spread := false, runtime.NumCPU() < 2
	for attempt := 0; attempt < 30 && !(ok && spread); attempt++ {
		got, st := run(4)
		if got != want {
			t.Fatalf("stealing changed the count: %d vs %d", got, want)
		}
		ok = ok || st.TailSteals > 0 && share(st) < 1
		spread = spread || finders(st) >= 3
	}
	if !ok {
		t.Error("no attempt both stole a tail and reduced the max worker match share")
	}
	if !spread {
		t.Error("no attempt had three or more workers finding matches in the head block")
	}
}

// TestTrieTailStealing mirrors the skew check on the trie executor, which
// shares the same stealable ranges (same scheduler caveat, so the steal
// assertion retries; count equality must hold every time).
func TestTrieTailStealing(t *testing.T) {
	// Heavier head than the per-pattern test: the trie executor's
	// prefix-reuse makes it a few times faster on the dense cluster, so
	// the straggler needs more work for a steal window to open at all.
	g := skewedGraph(t, 240, 4000)
	pl1, err := plan.Build(pattern.FourClique())
	if err != nil {
		t.Fatal(err)
	}
	pl2, err := plan.Build(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := plan.MergePlans([]*plan.Plan{pl1, pl2})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := BacktrackTrieCtx(context.Background(), g, tr, ExecOptions{Threads: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stole := false
	for attempt := 0; attempt < 10 && !stole; attempt++ {
		counts, st, err := BacktrackTrieCtx(context.Background(), g, tr, ExecOptions{Threads: 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if counts[i] != want[i] {
				t.Fatalf("pattern %d: stealing changed trie count %d -> %d", i, want[i], counts[i])
			}
		}
		stole = st.TailSteals > 0
	}
	if !stole {
		t.Error("no trie pass recorded a tail steal on the skewed graph")
	}
}

// TestTailStealRelievesStalledWorker pins the straggler scenario
// deterministically: fault injection stalls one worker right after it
// arms a block, so its siblings reliably drain the cursor, go idle, and
// must split the sleeper's untouched range.
//
// On a single-P runtime the scheduler can run one worker to completion
// before worker 0 ever claims a block (so nothing stalls and nothing is
// stealable); pin GOMAXPROCS to the worker count so every worker gets a
// thread and the stall actually creates a straggler.
func TestTailStealRelievesStalledWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	disarm, err := faultinject.Arm(faultinject.Config{StallWorker: 0, StallFor: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	// The mining must outlive worker 0's thread startup by a wide margin,
	// or the siblings drain the cursor before worker 0 claims (and stalls
	// on) anything; the dense head provides tens of milliseconds of work.
	g := skewedGraph(t, 120, 4000)
	pl, err := plan.Build(pattern.FourClique())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := BacktrackCtx(context.Background(), g, pl, nil, ExecOptions{Threads: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stole := false
	for attempt := 0; attempt < 5 && !stole; attempt++ {
		got, st, err := BacktrackCtx(context.Background(), g, pl, nil, ExecOptions{Threads: 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("stall+steal run counted %d, want %d", got, want)
		}
		stole = st.TailSteals > 0
	}
	if !stole {
		t.Error("siblings never stole from a worker stalled on an armed block")
	}
}
