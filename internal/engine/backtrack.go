package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"morphing/internal/faultinject"
	"morphing/internal/graph"
	"morphing/internal/obs"
	"morphing/internal/plan"
	"morphing/internal/setops"
)

// ExecOptions configures the backtracking executor.
type ExecOptions struct {
	// Threads is the worker count; 0 means GOMAXPROCS.
	Threads int
	// Instrument enables phase timings (Fig. 4 style breakdowns) at the
	// cost of timer calls around candidate generation and UDFs.
	Instrument bool
	// BlockSize is the number of initial vertices per work unit; 0 picks
	// a default balancing scheduling overhead against skew.
	BlockSize int
	// MatchLimit stops exploration once at least this many matches have
	// been found (0 = unlimited). The final count may slightly exceed the
	// limit (workers drain their current root vertex). This implements
	// Peregrine-style early termination for existence-style queries.
	MatchLimit uint64
	// NoTailSteal disables the tail work-stealing pass that splits the
	// heaviest in-flight block once the block cursor runs dry (see
	// steal.go). On by default; the switch exists for A/B skew
	// measurements and debugging.
	NoTailSteal bool
	// NoArena disables the pooled per-worker slab arenas that back the
	// executor's prefix-set scratch (and the setops tile kernels), making
	// every execution allocate fresh worker scratch from the GC heap. On
	// by default; the switch exists for A/B allocation measurements
	// (morphbench kernels reports both trajectories) and debugging.
	NoArena bool
}

// ThreadCount resolves the effective worker count (GOMAXPROCS when
// Threads is zero).
func (o ExecOptions) ThreadCount() int {
	if o.Threads > 0 {
		return o.Threads
	}
	return runtime.GOMAXPROCS(0)
}

// Backtrack explores all unique matches of the plan's pattern in g using
// pattern-aware backtracking: per level, candidates are the intersection
// of the adjacency lists of earlier matched neighbors, minus the adjacency
// lists of anti-neighbors, clipped by symmetry-breaking bounds. When visit
// is nil only the count is produced, enabling the last-level counting fast
// path (no materialization). The root level is parallelized over vertex
// blocks.
//
// o is the observability sink: counters land in its registry (workers
// flush per block, so hot loops stay on private fields). nil falls back
// to obs.Default(). The observer travels as its own argument rather than
// an ExecOptions field on purpose: keeping ExecOptions pointer-free keeps
// its GC shape trivial, which measurably matters to the executor's inner
// loops (adding a pointer field cost ~6% on motif counting).
func Backtrack(g graph.Adjacency, pl *plan.Plan, visit Visitor, opts ExecOptions, o *obs.Observer) (uint64, *Stats, error) {
	return BacktrackCtx(context.Background(), g, pl, visit, opts, o)
}

// BacktrackCtx is Backtrack with cooperative cancellation and panic
// isolation. Like the observer, the context rides alongside ExecOptions
// rather than inside it, keeping the options struct pointer-free (its GC
// shape measurably matters — see Backtrack).
//
// Cancellation is checked when a worker claims a work block, never in
// the inner matching loops: a cancel or deadline takes effect within one
// block's worth of work and returns the partial count plus ErrCanceled /
// ErrDeadlineExceeded (see the partial-result contract in ctx.go). A
// panic thrown by the visitor is recovered in the owning worker, aborts
// the sibling workers at their next block claim, and is surfaced as a
// single *PanicError carrying the stack — the process never crashes.
func BacktrackCtx(ctx context.Context, g graph.Adjacency, pl *plan.Plan, visit Visitor, opts ExecOptions, o *obs.Observer) (uint64, *Stats, error) {
	if pl == nil || pl.Pattern == nil {
		return 0, nil, fmt.Errorf("engine: nil plan")
	}
	if err := CtxErr(ctx); err != nil {
		return 0, nil, err
	}
	fi := faultinject.Active()
	ctx, fiStop := fi.Context(ctx)
	defer fiStop()
	visit = fi.Visitor(visit)
	start := time.Now()
	threads := opts.ThreadCount()
	n := g.NumVertices()
	blockSize := opts.BlockSize
	if blockSize <= 0 {
		blockSize = 256
		if n/threads < blockSize*8 {
			blockSize = n/(threads*8) + 1
		}
	}
	numBlocks := (n + blockSize - 1) / blockSize

	// A run scope on the context (obs.ContextWithRun) wins over the
	// caller's explicit observer: metrics and spans land in the current
	// query's scope and forward into the global registry from there.
	o = obs.FromContext(ctx, o)
	// Workers keep counters on private fields inside hot loops and flush
	// match deltas to this sharded cell at block granularity, so live
	// readers (progress, /metrics) see movement without slowing matching.
	liveMatches := o.Counter(MetricMatches)

	maxDeg := g.MaxDegree()
	e := getBTExec(threads)
	e.blockSize = blockSize
	e.numBlocks = numBlocks
	e.n = n
	e.noTailSteal = opts.NoTailSteal
	e.done = ctx.Done()
	e.fi = fi
	e.live = liveMatches
	for t := 0; t < threads; t++ {
		w := getBTWorker(t, g, pl, visit, opts.Instrument, maxDeg, opts.NoArena)
		if opts.MatchLimit > 0 {
			w.limit = opts.MatchLimit
			w.found = &e.found
		}
		w.exec = e
		e.workers[t] = w
		e.ranges[t] = &w.rng
	}
	for t := 0; t < threads; t++ {
		e.wg.Add(1)
		// w.spawn is a pre-bound zero-argument thunk created once per
		// worker lifetime: `go f(args)` heap-allocates a wrapper to carry
		// the arguments, while `go w.spawn()` reuses the existing funcval
		// and allocates nothing beyond the goroutine itself.
		go e.workers[t].spawn()
	}
	e.wg.Wait()

	total := uint64(0)
	// Exact capacities: AddLevel tops out at the pattern size and Add
	// appends one WorkerStats per worker, so the merged snapshot is three
	// allocations (it escapes to the caller and cannot be pooled).
	st := &Stats{
		Levels:  make([]LevelStats, 0, pl.Pattern.N()),
		Workers: make([]WorkerStats, 0, threads),
	}
	for _, w := range e.workers {
		total += w.count
		w.st.TailSteals += w.steals
		w.st.AddSetops(w.sst)
		for i, l := range w.levels {
			w.st.AddLevel(i, l.Candidates, l.Extended)
		}
		// Stats.Add copies entries by value, so the worker-owned backing
		// array is safe to lend here and reuse on the next execution.
		w.wstats[0] = WorkerStats{Worker: w.id, Time: w.busy, Matches: w.count}
		w.st.Workers = w.wstats[:]
		st.Add(&w.st)
		w.release()
	}
	aborted, panicErr := e.abort.Load(), e.panicErr
	e.release()
	st.Matches = total
	st.TotalTime = time.Since(start)
	PublishStats(o, st)
	if panicErr != nil {
		PublishAbort(o, panicErr)
		return total, st, panicErr
	}
	if err := CtxErr(ctx); err != nil && aborted {
		PublishAbort(o, err)
		return total, st, err
	}
	return total, st, nil
}

// btExec is the shared per-execution state of one BacktrackCtx call: the
// block cursor, abort/panic latches, and the worker/range tables the
// goroutines coordinate through. It exists as a pooled struct (rather
// than locals captured by goroutine closures) for the allocation
// trajectory: locals captured by N closures escape one by one, while a
// single pooled carrier costs nothing in steady state, and `go e.run(w)`
// spawns workers without materializing a closure at all.
type btExec struct {
	cursor int64  // atomic block claim cursor; leading for 64-bit alignment
	found  uint64 // shared early-termination counter (MatchLimit only)

	wg          sync.WaitGroup
	abort       atomic.Bool // set by cancellation or a worker panic
	panicOnce   sync.Once
	panicErr    *PanicError // first recovered panic wins
	done        <-chan struct{}
	fi          *faultinject.Injector
	live        *obs.Counter
	blockSize   int
	numBlocks   int
	n           int
	noTailSteal bool
	workers     []*btWorker
	ranges      []*vertexRange
}

var btExecPool = sync.Pool{New: func() any { return new(btExec) }}

// getBTExec returns an execution carrier with clean latches and tables
// sized for the worker count, reusing pooled capacity.
func getBTExec(threads int) *btExec {
	e := btExecPool.Get().(*btExec)
	e.cursor, e.found = 0, 0
	e.abort.Store(false)
	e.panicOnce = sync.Once{}
	e.panicErr = nil
	if cap(e.workers) < threads {
		e.workers = make([]*btWorker, threads)
		e.ranges = make([]*vertexRange, threads)
	} else {
		e.workers = e.workers[:threads]
		e.ranges = e.ranges[:threads]
	}
	return e
}

// release drops every per-execution reference (workers are already back
// in their own pool; keeping them reachable here would alias the next
// execution's state) and returns the carrier to the pool.
func (e *btExec) release() {
	clear(e.workers)
	clear(e.ranges)
	e.done = nil
	e.fi = nil
	e.live = nil
	e.panicErr = nil
	btExecPool.Put(e)
}

// run is one worker goroutine's work loop: claim blocks while the cursor
// lasts, then steal tails from straggling siblings.
func (e *btExec) run(w *btWorker) {
	defer e.wg.Done()
	// Busy time: the whole work loop, including the tail where a
	// worker keeps descending under its last root after the block
	// cursor is exhausted — exactly the straggler signature the
	// per-worker histograms exist to expose. Registered before the
	// recover defer so panicking workers report their time too.
	t0 := time.Now()
	defer func() { w.busy = time.Since(t0) }()
	// Panic containment: a visitor panic must not unwind past the
	// worker goroutine (that would kill the process). Record the
	// first one, abort the siblings, keep this worker's partial
	// counters — they are merged like any other worker's below.
	defer func() {
		if r := recover(); r != nil {
			pe := &PanicError{Worker: w.id, Value: r, Stack: debug.Stack()}
			e.panicOnce.Do(func() { e.panicErr = pe })
			e.abort.Store(true)
		}
	}()
	for {
		if e.abort.Load() {
			return
		}
		select {
		case <-e.done:
			e.abort.Store(true)
			return
		default:
		}
		if w.limit > 0 && atomic.LoadUint64(w.found) >= w.limit {
			return
		}
		b := int(atomic.AddInt64(&e.cursor, 1)) - 1
		if b >= e.numBlocks {
			break
		}
		lo := uint32(b * e.blockSize)
		hi := uint32((b + 1) * e.blockSize)
		if hi > uint32(e.n) {
			hi = uint32(e.n)
		}
		w.rng.reset(lo, hi, !e.noTailSteal)
		// After reset: a stall-injected straggler holds an armed,
		// stealable range, the scenario tail stealing exists for.
		e.fi.BlockClaimed(w.id)
		before := w.count
		w.runRoot()
		e.live.Add(w.id, w.count-before)
	}
	// Tail: the cursor is dry but a sibling may still be grinding
	// through a heavy block — split its remaining range and take the
	// upper half (once per block, see steal.go).
	for !e.noTailSteal {
		if e.abort.Load() {
			return
		}
		select {
		case <-e.done:
			e.abort.Store(true)
			return
		default:
		}
		if w.limit > 0 && atomic.LoadUint64(w.found) >= w.limit {
			return
		}
		lo, hi, ok := stealFrom(e.ranges, w.id)
		if !ok {
			return
		}
		w.steals++
		w.rng.reset(lo, hi, false)
		before := w.count
		w.runRoot()
		e.live.Add(w.id, w.count-before)
	}
}

type btWorker struct {
	id         int
	g          graph.Adjacency // per-worker view (see graph.Adjacency)
	vlabels    []int32         // g.Labels(), read once per candidate
	pins       Pins            // adjacency rows of the bound prefix
	pl         *plan.Plan
	visit      Visitor
	instrument bool

	st     Stats
	sst    setops.Stats
	levels []LevelStats  // per-level selectivity, folded into st at merge
	busy   time.Duration // wall-clock inside the work loop
	count  uint64
	steals uint64      // tail-steal splits this worker performed
	rng    vertexRange // in-flight level-0 range, stealable by idle siblings
	limit  uint64      // early-termination threshold (0 = off)
	found  *uint64     // shared found-so-far counter when limit > 0

	match    []uint32 // data vertex bound at each level
	byVertex []uint32 // data vertex bound to each pattern vertex
	bufA     [][]uint32
	bufB     [][]uint32
	labels   []int32 // required label per level (pattern.Unlabeled = any)
	check    []int   // last level: bound depths countLast corrects for

	// Pooling state. A pooled worker keeps its slab arena — and the
	// prefix-set buffers carved from it — across executions, so a worker
	// reused at the same (pattern size, max degree) shape allocates
	// nothing. wstats backs st.Workers so the merge loop does not allocate
	// a one-element slice per worker per execution.
	arena  *setops.Arena // backs scratch and kernel tiles; nil under NoArena
	k      int           // pattern size the scratch is shaped for
	maxDeg int           // buffer capacity the scratch is shaped for
	wstats [1]WorkerStats

	// exec is the current execution's carrier, set by BacktrackCtx before
	// spawn runs and cleared on release. spawn is the pre-bound goroutine
	// entry (`go w.spawn()`), allocated once per worker lifetime — see the
	// spawn loop in BacktrackCtx for why it is not `go e.run(w)`.
	exec  *btExec
	spawn func()
}

// btWorkerPool recycles workers (and the arenas inside them) across
// executions. NoArena workers bypass it so A/B allocation measurements
// see the unpooled trajectory.
var btWorkerPool = sync.Pool{New: func() any { return new(btWorker) }}

// getBTWorker returns a worker shaped for the plan, pooled unless noArena.
func getBTWorker(id int, g graph.Adjacency, pl *plan.Plan, visit Visitor, instrument bool, maxDeg int, noArena bool) *btWorker {
	var w *btWorker
	if noArena {
		w = new(btWorker)
	} else {
		w = btWorkerPool.Get().(*btWorker)
		if w.arena == nil {
			w.arena = setops.GetArena()
		}
	}
	if w.spawn == nil {
		w.spawn = func() { w.exec.run(w) }
	}
	k := pl.Pattern.N()
	if w.k != k || w.maxDeg < maxDeg {
		w.reshape(k, maxDeg)
	}
	w.id = id
	w.g = g.View()
	w.vlabels = g.Labels()
	w.pins.Reset(w.g, k)
	w.pins.Bind(w.match)
	w.pl = pl
	w.check = Unconnected(w.check[:0], k-1, pl.Connect[k-1])
	w.visit = visit
	w.instrument = instrument
	for i := 0; i < k; i++ {
		w.labels[i] = pl.Pattern.Label(pl.Order[i])
	}
	clear(w.levels)
	w.resetStats()
	w.busy = 0
	w.count = 0
	w.steals = 0
	w.limit = 0
	w.found = nil
	w.rng.reset(0, 0, false) // neutralize any stale armed range before siblings can steal
	return w
}

// reshape (re)builds the worker's scratch for a new (k, maxDeg) shape.
// With an arena attached every uint32 buffer is carved from it — after a
// Reset, since the previous shape's buffers alias the same slabs.
func (w *btWorker) reshape(k, maxDeg int) {
	w.k, w.maxDeg = k, maxDeg
	if w.arena != nil {
		w.arena.Reset()
	}
	alloc := func(n int) []uint32 {
		if w.arena != nil {
			return w.arena.Alloc(n)
		}
		return make([]uint32, 0, n)
	}
	w.levels = make([]LevelStats, k)
	w.match = alloc(k)[:k]
	w.byVertex = alloc(k)[:k]
	w.bufA = make([][]uint32, k)
	w.bufB = make([][]uint32, k)
	w.labels = make([]int32, k)
	for i := 0; i < k; i++ {
		w.bufA[i] = alloc(maxDeg)
		w.bufB[i] = alloc(maxDeg)
	}
}

// resetStats clears the per-execution counters while keeping the slice
// capacity the previous execution grew (Stats.Add copies entries out, so
// reuse cannot alias the merged snapshot).
func (w *btWorker) resetStats() {
	lv, wk, tn := w.st.Levels[:0], w.st.Workers[:0], w.st.TrieNodes[:0]
	w.st = Stats{}
	w.st.Levels, w.st.Workers, w.st.TrieNodes = lv, wk, tn
	w.sst = setops.Stats{Scratch: w.arena}
}

// release returns a pooled worker to the pool, dropping per-execution
// references so a pooled worker never pins a graph, plan or visitor.
// NoArena workers are simply dropped for the GC to take.
func (w *btWorker) release() {
	w.pins.Release()
	if w.arena == nil {
		return
	}
	w.g = nil
	w.vlabels = nil
	w.pl = nil
	w.visit = nil
	w.found = nil
	w.exec = nil
	btWorkerPool.Put(w)
}

// runRoot explores matches whose level-0 vertex lies in the worker's
// armed range, claiming vertices one at a time so an idle sibling can
// steal the unclaimed tail mid-flight.
func (w *btWorker) runRoot() {
	k := w.pl.Pattern.N()
	wantLabel := w.labels[0]
	for {
		v, ok := w.rng.next()
		if !ok {
			return
		}
		if w.limit > 0 && atomic.LoadUint64(w.found) >= w.limit {
			return
		}
		w.levels[0].Candidates++
		if !HasLabel(w.vlabels, v, wantLabel) {
			continue
		}
		w.levels[0].Extended++
		before := w.count
		if k == 1 {
			w.emit(v, 0)
		} else {
			w.match[0] = v
			w.byVertex[w.pl.Order[0]] = v
			w.descend(1)
		}
		if w.limit > 0 && w.count != before {
			atomic.AddUint64(w.found, w.count-before)
		}
	}
}

// descend binds level i given levels [0,i) already bound.
func (w *btWorker) descend(i int) {
	last := i == w.pl.Pattern.N()-1
	if last && w.visit == nil {
		// Counting fast path: the final candidate set is never
		// materialized — the last set operation, the symmetry window and
		// the label filter all run count-only (see CountExtensions). The
		// scan width is unknown here, so the level records its extension
		// count as both candidates and extensions (see Stats.Levels).
		n := w.countLast(i)
		w.count += n
		w.levels[i].Candidates += n
		w.levels[i].Extended += n
		return
	}
	cands := w.candidates(i)
	if lo, hi, bounded := w.window(i); bounded {
		cands = setops.Clip(cands, lo, hi)
	}
	w.levels[i].Candidates += uint64(len(cands))
	var ext uint64
	wantLabel := w.labels[i]
	for _, v := range cands {
		if !HasLabel(w.vlabels, v, wantLabel) {
			continue
		}
		if w.usedAt(v, i) {
			continue
		}
		ext++
		if last {
			w.emit(v, i)
			continue
		}
		w.match[i] = v
		w.byVertex[w.pl.Order[i]] = v
		w.descend(i + 1)
	}
	w.levels[i].Extended += ext
}

// candidates computes the level-i candidate set from the plan's Connect
// and Disconnect lists. The returned slice is worker scratch or a pinned
// row of an earlier level, valid while the levels below i stay bound.
func (w *btWorker) candidates(i int) []uint32 {
	var t0 time.Time
	if w.instrument {
		t0 = time.Now()
	}
	var cur []uint32
	cur, w.bufA[i], w.bufB[i] = w.pins.Candidates(w.pl.Connect[i], w.pl.Disconnect[i], w.bufA[i], w.bufB[i], &w.sst)
	if w.instrument {
		w.st.SetOpTime += time.Since(t0)
	}
	return cur
}

// countLast counts the extensions at the final level i without ever
// materializing its candidate set: the symmetry window and label filter
// are fused into the last (count-only) set operation, and already-bound
// vertices are subtracted arithmetically instead of scanned per candidate.
func (w *btWorker) countLast(i int) uint64 {
	var t0 time.Time
	if w.instrument {
		t0 = time.Now()
	}
	lo, hi, _ := w.window(i)
	f, ok := LevelFilter(w.g, lo, hi, w.labels[i])
	if !ok {
		return 0 // labeled level on an unlabeled graph
	}
	var n uint64
	n, w.bufA[i], w.bufB[i] = w.pins.CountExtensions(w.pl.Connect[i], w.pl.Disconnect[i], w.check, f, w.bufA[i], w.bufB[i], &w.sst)
	if w.instrument {
		w.st.SetOpTime += time.Since(t0)
	}
	return n
}

// window returns the half-open symmetry-breaking window [lo, hi) for
// level i. bounded is false when the level has no symmetry constraints,
// letting callers skip the clip entirely.
func (w *btWorker) window(i int) (lo, hi uint32, bounded bool) {
	lo, hi = 0, ^uint32(0)
	for _, j := range w.pl.Greater[i] {
		if w.match[j]+1 > lo {
			lo = w.match[j] + 1
			bounded = true
		}
	}
	for _, j := range w.pl.Smaller[i] {
		if w.match[j] < hi {
			hi = w.match[j]
			bounded = true
		}
	}
	return lo, hi, bounded
}

// usedAt reports whether v is already bound at a level below i.
func (w *btWorker) usedAt(v uint32, i int) bool {
	for j := 0; j < i; j++ {
		if w.match[j] == v {
			return true
		}
	}
	return false
}

// emit completes the match with v at the last level and delivers it.
func (w *btWorker) emit(v uint32, i int) {
	w.count++
	if w.visit == nil {
		return
	}
	var t0 time.Time
	if w.instrument {
		t0 = time.Now()
	}
	w.match[i] = v
	w.byVertex[w.pl.Order[i]] = v
	w.st.Materialized += uint64(len(w.byVertex))
	if w.instrument {
		w.st.MaterializeTime += time.Since(t0)
		t0 = time.Now()
	}
	w.st.UDFCalls++
	w.visit(w.id, w.byVertex)
	if w.instrument {
		w.st.UDFTime += time.Since(t0)
	}
}
