package engine

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"morphing/internal/faultinject"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/plan"
)

func TestVertexRangeClaim(t *testing.T) {
	var r vertexRange
	r.reset(3, 7, true)
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
	r.reset(0, 100, true)
	for i := 0; i < 10; i++ {
		r.next()
	}
	lo, hi, ok := r.stealHalf()
	if !ok {
		t.Fatal("splittable range with 90 vertices left refused a steal")
	}
	if lo != 55 || hi != 100 {
		t.Fatalf("stole [%d,%d), want [55,100)", lo, hi)
	}
	if rem := r.remaining(); rem != 45 {
		t.Fatalf("victim has %d left, want 45", rem)
	}
	// The once-per-block bound: a second steal on the same armed range
	// must fail even though plenty of work remains.
	if _, _, ok := r.stealHalf(); ok {
		t.Fatal("second steal on the same block succeeded")
	}
	// Claims continue seamlessly up to the reduced bound.
	n := 0
	for {
		if _, ok := r.next(); !ok {
			break
		}
		n++
	}
	if n != 45 {
		t.Fatalf("victim claimed %d more vertices, want 45", n)
	}
}

func TestVertexRangeStealRespectsMinimum(t *testing.T) {
	var r vertexRange
	r.reset(0, minStealRange-1, true)
	if _, _, ok := r.stealHalf(); ok {
		t.Fatal("stole from a range below minStealRange")
	}
	var nr vertexRange
	nr.reset(0, 100, false)
	if _, _, ok := nr.stealHalf(); ok {
		t.Fatal("stole from a non-splittable range")
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
// unpreempted), so the steal/skew assertions accept the first of several
// attempts; count equality with the one-worker oracle must hold on every
// attempt.
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
	want, _ := run(1)
	ok := false
	for attempt := 0; attempt < 10 && !ok; attempt++ {
		got, st := run(4)
		if got != want {
			t.Fatalf("stealing changed the count: %d vs %d", got, want)
		}
		ok = st.TailSteals > 0 && share(st) < 1
	}
	if !ok {
		t.Error("no attempt both stole a tail and reduced the max worker match share")
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
