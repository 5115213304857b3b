package engine

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"morphing/internal/faultinject"
	"morphing/internal/graph"
	"morphing/internal/obs"
	"morphing/internal/pattern"
	"morphing/internal/plan"
	"morphing/internal/setops"
)

// The depth-first executor. Every plan-driven execution in the repository
// is one pass of a plan.Trie over the data graph: plan.MergePlans folds any
// engine's plans on their shared matching-order prefixes, the pass
// enumerates each shared partial embedding once and fans out into the
// per-pattern subtrees, and a single plan is the one-leaf case (BacktrackCtx).
// A pass either counts — one count per leaf plan, the last levels never
// materialized — or streams every match to its leaf plan's own Sink, one
// settled candidate window per call (MatchTrieCtx). Around the loop nest sit the adaptive set-operation entry
// points (adaptive.go), the atomic block cursor with tail stealing
// (steal.go), cooperative cancellation and worker panic containment
// (ctx.go).

// BuildTrie merges the engine's plans for ps into a prefix trie, without
// executing anything — callers read the trie's sharing statistics for
// their reports.
func BuildTrie(e Engine, g graph.Adjacency, ps []*pattern.Pattern) (*plan.Trie, error) {
	plans := make([]*plan.Plan, len(ps))
	for i, p := range ps {
		pl, err := e.PlanPattern(g, p)
		if err != nil {
			return nil, fmt.Errorf("engine: trie plan for pattern %d: %w", i, err)
		}
		plans[i] = pl
	}
	return plan.MergePlans(plans)
}

// BacktrackTrieCtx mines every pattern of the merged trie in one counting
// pass, returning one count per plan (in tr.Plans order), with cooperative
// cancellation and panic isolation under the same partial-result contract
// as BacktrackCtx: an interrupted pass returns partial counts for every
// pattern simultaneously, each reflecting what was counted before the
// abort took effect.
func BacktrackTrieCtx(ctx context.Context, g graph.Adjacency, tr *plan.Trie, opts ExecOptions, o *obs.Observer) ([]uint64, *Stats, error) {
	return MatchTrieCtx(ctx, g, tr, nil, opts, o)
}

// MatchTrieCtx is the streaming form of BacktrackTrieCtx: one pass over the
// merged trie in which sinks[i] receives every match of tr.Plans[i], in
// that plan's pattern-vertex order, shared prefixes being enumerated once
// for all the plans below them. Nil sinks is the counting pass; otherwise
// every plan has its sink. The interruption contract is
// BacktrackTrieCtx's — one partial count per plan, every match counted was
// delivered — and a panic in any plan's sink aborts the whole pass.
func MatchTrieCtx(ctx context.Context, g graph.Adjacency, tr *plan.Trie, sinks []Sink, opts ExecOptions, o *obs.Observer) ([]uint64, *Stats, error) {
	if tr == nil || len(tr.Plans) == 0 {
		return nil, nil, fmt.Errorf("engine: nil or empty plan trie")
	}
	if sinks != nil && (len(sinks) != len(tr.Plans) || slices.ContainsFunc(sinks, func(s Sink) bool { return s == nil })) {
		return nil, nil, fmt.Errorf("engine: streaming %d plans needs a sink each, got %d (or an empty one)", len(tr.Plans), len(sinks))
	}
	counts := make([]uint64, len(tr.Plans))
	if err := CtxErr(ctx); err != nil {
		return counts, nil, err
	}
	st, err := getTriePass().mine(ctx, g, tr, sinks, counts, opts, o)
	return counts, st, err
}

// triePass is the shared state of one pass: the block cursor, the
// abort/panic latches, the worker and range tables the goroutines
// coordinate through, and the program the workers run (plan.Program). It is a
// pooled struct rather than locals captured by goroutine closures for the
// allocation trajectory: locals captured by N closures escape one by one,
// while a pooled carrier costs nothing in steady state — a pass allocates
// the Stats it returns and nothing else, so a caller that runs hundreds of
// tiny executions pays the executor no garbage.
type triePass struct {
	cursor int64  // atomic block claim cursor; leading for 64-bit alignment
	found  uint64 // atomic: matches so far, maintained under MatchLimit only

	wg        sync.WaitGroup
	abort     atomic.Bool    // set by cancellation or a worker panic
	onDone    func()         // sets abort when the pass's context ends; bound once per pooled pass
	hook      sync.WaitGroup // the pending onDone call: mine waits it out before the pass is reused
	panicOnce sync.Once
	panicErr  *PanicError // first recovered panic wins
	done      <-chan struct{}
	fi        *faultinject.Injector
	live      *obs.Counter
	blockSize int
	numBlocks int
	n         int
	limit     uint64
	workers   []*trieWorker
	ranges    []*vertexRange

	tr    *plan.Trie
	lrows labelRower   // the graph, when it serves label rows
	above []uint32     // the graph's upper-row offsets, when it serves them
	sinks []Sink       // per plan; nil: counting pass
	prog  plan.Program // what each node runs in this pass

	single plan.Trie // BacktrackCtx: the one-leaf trie of its plan
	one    [1]Sink   // and the sink list of its streaming pass
}

var triePassPool = sync.Pool{New: func() any {
	ps := new(triePass)
	ps.onDone = func() { ps.abort.Store(true); ps.hook.Done() }
	return ps
}}

// getTriePass returns a pass with clean latches, reusing pooled capacity.
func getTriePass() *triePass {
	ps := triePassPool.Get().(*triePass)
	ps.cursor, ps.found = 0, 0
	ps.abort.Store(false)
	ps.panicOnce = sync.Once{}
	return ps
}

// release drops every per-pass reference — a pooled pass pins no graph,
// trie, plan or sink, and its workers are back in their own pool — and
// returns the pass to the pool.
func (ps *triePass) release() {
	clear(ps.workers)
	clear(ps.ranges)
	ps.prog.Release()
	ps.done, ps.fi, ps.live, ps.panicErr = nil, nil, nil, nil
	ps.tr, ps.lrows, ps.above, ps.sinks, ps.one[0] = nil, nil, nil, nil, nil
	ps.single.Reset() // cannot fail without plans
	triePassPool.Put(ps)
}

// mine runs the pass: tr over g on opts.ThreadCount() workers, counts[i]
// receiving plan i's matches and sinks[i], in a streaming pass, each of
// them. It releases ps.
func (ps *triePass) mine(ctx context.Context, g graph.Adjacency, tr *plan.Trie, sinks []Sink, counts []uint64, opts ExecOptions, o *obs.Observer) (*Stats, error) {
	fi := faultinject.Active()
	ctx, fiStop := fi.Context(ctx)
	defer fiStop()
	start := time.Now()
	// A run scope on the context (obs.ContextWithRun) wins over the
	// caller's explicit observer: metrics land in the registry of the
	// current query's scope.
	o = obs.FromContext(ctx, o)

	threads := opts.ThreadCount()
	n := g.NumVertices()
	// A block is 256 root vertices, or fewer so that every worker sees at
	// least eight: the cursor hands out blocks cheaply, and the skew left
	// when it runs dry is evened out by halving ranges (steal.go).
	blockSize := 256
	if n/threads < blockSize*8 {
		blockSize = n/(threads*8) + 1
	}
	ps.blockSize = blockSize
	ps.numBlocks = (n + blockSize - 1) / blockSize
	ps.n = n
	ps.limit = opts.MatchLimit
	ps.done = ctx.Done()
	ps.fi = fi
	// Workers keep counters on private fields inside hot loops and flush
	// match deltas to this sharded cell at block granularity, so live
	// readers (progress, /metrics) see movement without slowing matching.
	ps.live = o.Counter(MetricMatches)
	ps.tr, ps.sinks = tr, sinks
	ps.lrows, _ = g.(labelRower)
	if a, ok := g.(aboveRower); ok && sinks == nil { // only count leaves cut rows
		ps.above = a.AboveRows()
	}
	ps.prog.Lower(tr, sinks != nil, ps.lrows != nil)

	if cap(ps.workers) < threads {
		ps.workers = make([]*trieWorker, threads)
		ps.ranges = make([]*vertexRange, threads)
	}
	ps.workers, ps.ranges = ps.workers[:threads], ps.ranges[:threads]
	maxDeg := g.MaxDegree()
	for t := range ps.workers {
		w := getTrieWorker(t, g, ps, opts.Instrument, maxDeg)
		ps.workers[t], ps.ranges[t] = w, &w.rng
	}
	// Workers poll the context only where they claim a block; inside a
	// block they read abort (exec), so the context's end has to reach it.
	var unhook func() bool
	if ps.done != nil { // a context that can end
		ps.hook.Add(1)
		unhook = context.AfterFunc(ctx, ps.onDone)
	}
	ps.wg.Add(threads)
	for _, w := range ps.workers {
		// w.spawn is a pre-bound zero-argument thunk created once per
		// worker lifetime: `go f(args)` heap-allocates a wrapper to carry
		// the arguments, while `go w.spawn()` reuses the existing funcval
		// and allocates nothing beyond the goroutine itself.
		go w.spawn()
	}
	ps.wg.Wait()
	if unhook != nil && unhook() {
		ps.hook.Done() // onDone will never run
	}
	ps.hook.Wait()

	// The merged snapshot escapes to the caller and cannot be pooled: it is
	// three allocations of exact capacity, the per-level table riding with
	// the Stats. Workers count per node only; a level is the sum of its
	// nodes.
	snap := &struct {
		Stats
		levels [pattern.MaxVertices]LevelStats
	}{Stats: Stats{
		TriePasses:       1,
		TriePatterns:     uint64(len(tr.Plans)),
		TrieSharedLevels: uint64(tr.SharedLevels),
		Workers:          make([]WorkerStats, 0, threads),
		TrieNodes:        make([]TrieNodeStats, len(ps.prog.Order)),
	}}
	st := &snap.Stats
	st.Levels = snap.levels[:tr.MaxDepth]
	for i, id := range ps.prog.Order {
		node, agg := ps.prog.Ops[id].Node, &st.TrieNodes[i]
		agg.Node, agg.Depth, agg.Patterns, agg.Leaf = node.ID, node.Depth, node.Patterns, node.Leaf
		for _, w := range ps.workers {
			agg.Enters += w.nstat[node.ID].enters
			agg.Candidates += w.nstat[node.ID].cands
			agg.Extended += w.nstat[node.ID].ext
		}
		st.Levels[node.Depth].Candidates += agg.Candidates
		st.Levels[node.Depth].Extended += agg.Extended
	}
	for _, w := range ps.workers {
		for i, c := range w.counts {
			counts[i] += c
		}
		w.st.TailSteals += w.steals
		w.st.AddSetops(w.sst)
		// Stats.Add copies entries by value, so the worker-owned backing
		// array is safe to lend here and reuse on the next pass.
		w.wstats[0] = WorkerStats{Worker: w.id, Time: w.busy, Matches: w.total()}
		w.st.Workers = w.wstats[:]
		st.Add(&w.st)
		w.release()
	}
	for _, c := range counts {
		st.Matches += c
	}
	aborted, panicErr := ps.abort.Load(), ps.panicErr
	ps.release()
	st.TotalTime = time.Since(start)
	publishStats(o, st)
	if panicErr != nil {
		return st, panicErr
	}
	if err := CtxErr(ctx); err != nil && aborted {
		return st, err
	}
	return st, nil
}

// stopped reports whether the worker loop has to end: a sibling panicked,
// the context is done, or the pass has found its MatchLimit.
func (ps *triePass) stopped() bool {
	if ps.abort.Load() {
		return true
	}
	select {
	case <-ps.done:
		ps.abort.Store(true)
		return true
	default:
	}
	return ps.limit > 0 && atomic.LoadUint64(&ps.found) >= ps.limit
}

// run is one worker goroutine's work loop, the only one in the repository:
// claim blocks while the cursor lasts, then keep halving the largest
// unclaimed range of a straggling sibling.
func (ps *triePass) run(w *trieWorker) {
	defer ps.wg.Done()
	// Busy time: the whole work loop, including the tail where a worker
	// keeps descending under its last root after the block cursor is
	// exhausted — exactly the straggler signature the per-worker
	// histograms exist to expose. Registered before the recover defer so
	// panicking workers report their time too.
	t0 := time.Now()
	defer func() { w.busy = time.Since(t0) }()
	// Panic containment: a sink panic must not unwind past the worker
	// goroutine (that would kill the process). Record the first one, abort
	// the siblings, keep this worker's partial counters — they are merged
	// like any other worker's. A read of an mmap-backed graph whose file
	// shrank faults; under SetPanicOnFault that is a panic too, recorded
	// as graph.ErrMappingFault.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if err := graph.MappingFault(r); err != nil {
				r = err
			}
			pe := &PanicError{Worker: w.id, Value: r, Stack: debug.Stack()}
			ps.panicOnce.Do(func() { ps.panicErr = pe })
			ps.abort.Store(true)
		}
	}()
	for !ps.stopped() {
		b := int(atomic.AddInt64(&ps.cursor, 1)) - 1
		if b >= ps.numBlocks {
			break
		}
		lo := uint32(b * ps.blockSize)
		hi := uint32(min((b+1)*ps.blockSize, ps.n))
		w.rng.reset(lo, hi)
		// After reset: a stall-injected straggler holds an armed,
		// stealable range, the scenario tail stealing exists for.
		ps.fi.BlockClaimed(w.id)
		ps.mineRange(w)
	}
	// Tail: the cursor is dry but a sibling may still be grinding through
	// a heavy range — take the upper half of the largest one, again and
	// again down to single roots (see steal.go).
	for !ps.stopped() {
		lo, hi, ok := stealFrom(ps.ranges, w.id)
		if !ok {
			return
		}
		w.steals++
		w.rng.reset(lo, hi)
		ps.mineRange(w)
	}
}

// mineRange runs w over its armed range and publishes what it found.
func (ps *triePass) mineRange(w *trieWorker) {
	before := w.total()
	w.runRoot()
	found := w.total() - before
	ps.live.Add(w.id, found)
	if ps.sinks == nil { // a streaming pass meets the fault where it delivers
		ps.fi.MatchesCounted(w.id, found)
	}
}

// Lower returns the program a pass over g runs for tr: what Program.Lower
// decides for a counting pass (stream false) or a streaming one on g.
func Lower(g graph.Adjacency, tr *plan.Trie, stream bool) *plan.Program {
	p := new(plan.Program)
	_, labelRows := g.(labelRower)
	p.Lower(tr, stream, labelRows)
	return p
}

// trieWorker interprets the trie over one stealable vertex range at a
// time. Its selectivity counters are per trie node (dense node-ID indexed),
// so the run report can show where sharing paid off; per-level selectivity
// is their sum by depth.
type trieWorker struct {
	id         int
	g          graph.Adjacency // per-worker view (see graph.Adjacency)
	vlabels    []int32         // g.Labels(), read once per candidate
	pins       rowPins         // adjacency rows of the bound prefix
	ops        []plan.Op       // the pass's program, by node ID, then the fans
	roots      []int32
	stream     bool // streaming pass: outs delivers every window
	instrument bool

	st     Stats
	sst    setops.Stats
	busy   time.Duration
	steals uint64
	rng    vertexRange

	// What a worker writes while matching lives in this struct, its arena or
	// table, never in small allocations of its own: those sit side by side
	// with the siblings' and share cache lines with them (a streaming pass
	// bumps a count and fills a slot per match). Hence the fixed arrays.
	bufA  [pattern.MaxVertices][]uint32
	bufB  [pattern.MaxVertices][]uint32
	raw   [pattern.MaxVertices][]uint32 // last raw (pre-window) candidate set: the SrcRaw bases, and the SrcFan sets
	lab   [pattern.MaxVertices][]uint32 // scanning labeled levels: the candidates carrying the label
	wins  [pattern.MaxVertices][]trieWin
	match []uint32
	xs    [pattern.MaxVertices]uint32 // settle: the bound candidates
	fs    [pattern.MaxVertices]uint32 // and a leaf's fixed vertices

	counts []uint64        // per-plan match counts
	nstat  []trieNodeCount // per trie node
	table  []uint64        // back the two above, a cache line of padding at either end
	ntable []trieNodeCount

	outs []trieOut // streaming pass: per plan, the match being assembled

	// Hoisting state. stamp[j] is the tick at which depth j was last bound;
	// a built base is valid while its deepest operand's stamp is the one it
	// was built under (the rule rowPins uses for rows, with a counter where
	// rowPins compares vertices). tick never rewinds, also not between passes.
	tick  uint64
	stamp [pattern.MaxVertices]uint64
	nodes []nodeScratch // per node ID; base buffers sized by need

	// Pooling state. A pooled worker keeps its arena and scratch, which only
	// grow — per-depth buffers to the deepest trie and highest degree seen,
	// per-node and per-plan tables to the largest trie — so a query that
	// alternates between plans of different sizes (FSM) allocates nothing.
	// wstats backs st.Workers across passes.
	arena  *setops.Arena // the worker's own, for its lifetime in the pool
	d      int           // trie depth the scratch is shaped for
	maxDeg int           // buffer capacity the scratch is shaped for
	wstats [1]WorkerStats

	// pass is the current pass, set by getTrieWorker and cleared on
	// release. spawn is the pre-bound goroutine entry (`go w.spawn()`),
	// allocated once per worker lifetime — see the spawn loop in mine.
	pass  *triePass
	spawn func()

	// Streaming state past everything a counting pass touches, so it moves
	// no counting field's offset: a window less its bound vertices.
	tail []uint32
}

// trieNodeCount is one node's selectivity: partial embeddings reaching it,
// candidates its shared computation produced, candidates surviving its
// filters.
type trieNodeCount struct{ enters, cands, ext uint64 }

// trieWin is one branch's resolved symmetry window, half-open [lo, hi).
type trieWin struct {
	lo, hi uint32
}

// nodeScratch is what a worker keeps per node: its built base set and the
// stamp of its deepest operand at build time (0: never built in this pass),
// where a count leaf over a held base last cut it (held), and the bitmap of
// the base a marked leaf last marked (mark).
type nodeScratch struct {
	set    []uint32
	stamp  uint64
	cursor windowCursor
	marks  leafMarks
}

// leafMarks is a marked leaf's base as a bitmap over the graph's vertices:
// words has the bits of ids set, a copy of the base marked under key (0:
// nothing marked). words is allocated on the leaf's first mark.
type leafMarks struct {
	words []uint64
	ids   []uint32
	key   uint64
}

// reset clears every bit the leaf marked, from its own copy of the ids,
// and drops a bitmap too small for a graph of the given words.
func (m *leafMarks) reset(words int) {
	for _, v := range m.ids {
		m.words[v>>6] &^= 1 << (v & 63)
	}
	m.ids, m.key = m.ids[:0], 0
	if len(m.words) < words {
		m.words = nil
	}
}

// windowCursor is where a count leaf last cut its held base: base[at] is
// the first element ≥ lo of the base generation key (0: no cut yet).
type windowCursor struct {
	key    uint64
	lo, at uint32
}

// trieOut assembles one leaf plan's matches for the plan's sink, in
// pattern-vertex order: m[plan.Order[j]] is the vertex bound at depth j.
type trieOut struct {
	m     []uint32 // worker scratch, one slot per pattern vertex
	order []int    // the plan's Order
	last  int      // the pattern vertex the plan's final level binds
	take  Window   // where the plan's windows go: what its sink bound for the worker
}

func (w *trieWorker) total() uint64 {
	var t uint64
	for _, c := range w.counts {
		t += c
	}
	return t
}

// trieWorkerPool recycles workers (and the arenas inside them) across
// passes.
var trieWorkerPool = sync.Pool{New: func() any {
	w := &trieWorker{arena: setops.GetArena()}
	w.spawn = func() { w.pass.run(w) }
	return w
}}

// getTrieWorker returns a pooled worker shaped for the pass.
func getTrieWorker(id int, g graph.Adjacency, ps *triePass, instrument bool, maxDeg int) *trieWorker {
	w := trieWorkerPool.Get().(*trieWorker)
	tr := ps.tr
	if w.d < tr.MaxDepth || w.maxDeg < maxDeg {
		w.reshape(max(w.d, tr.MaxDepth), max(w.maxDeg, maxDeg))
	}
	w.id = id
	w.pass = ps
	w.g = g.View()
	w.vlabels = g.Labels()
	w.pins.reset(w.g, w.d)
	w.pins.lrows, w.pins.above, w.pins.match = ps.lrows, ps.above, w.match
	w.ops, w.roots = ps.prog.Ops, ps.prog.Roots
	w.stream = ps.sinks != nil
	w.instrument = instrument
	const pad = 8 // uint64s in a cache line, and at least one in trieNodeCounts
	plans, nodes := len(tr.Plans), tr.Nodes
	if cap(w.table) < plans+2*pad {
		w.table = make([]uint64, plans+2*pad)
	}
	if cap(w.ntable) < nodes+2*pad {
		w.ntable = make([]trieNodeCount, nodes+2*pad)
	}
	w.counts, w.nstat = w.table[pad:pad+plans], w.ntable[pad:pad+nodes]
	clear(w.counts)
	clear(w.nstat)
	if len(w.nodes) < nodes {
		w.nodes = append(w.nodes, make([]nodeScratch, nodes-len(w.nodes))...)
	}
	// No base, cut or (in a pass with marked leaves, which the bits wait
	// for) bit of an earlier pass, or graph, survives; base buffers stay:
	// they are capacity, not content.
	for i, words := 0, (g.NumVertices()+63)/64; i < len(w.nodes); i++ {
		ns := &w.nodes[i]
		ns.stamp, ns.cursor = 0, windowCursor{}
		if ps.prog.Marks {
			ns.marks.reset(words)
		}
	}
	for i := 0; ps.prog.Scans && i < w.d && w.lab[i] == nil; i++ {
		w.lab[i] = w.arena.Alloc(w.maxDeg)
	}
	if w.stream {
		if len(w.outs) < plans {
			w.outs = append(w.outs, make([]trieOut, plans-len(w.outs))...)
		}
		for i, pl := range tr.Plans {
			o := &w.outs[i]
			if o.m == nil {
				o.m = w.arena.Alloc(pattern.MaxVertices)
			}
			o.m, o.order, o.last = o.m[:len(pl.Order)], pl.Order, pl.Order[len(pl.Order)-1]
			o.take = ps.sinks[i](id)
		}
	}
	w.st = Stats{}
	w.sst = setops.Stats{Scratch: w.arena}
	w.busy = 0
	w.steals = 0
	w.rng.reset(0, 0) // neutralize any stale armed range before siblings can steal
	return w
}

// reshape (re)builds the worker's per-depth scratch for a deeper trie or a
// higher degree, carving every uint32 buffer from the arena (after a Reset,
// since the previous shape's buffers — the built bases among them — alias
// the same slabs).
func (w *trieWorker) reshape(d, maxDeg int) {
	w.d, w.maxDeg = d, maxDeg
	w.arena.Reset()
	w.match = w.arena.Alloc(d)[:d]
	w.tail = w.arena.Alloc(maxDeg)
	w.lab = [pattern.MaxVertices][]uint32{}
	for i := range w.nodes {
		w.nodes[i].set = nil
	}
	clear(w.outs)
	for i := 0; i < d; i++ {
		w.bufA[i] = w.arena.Alloc(maxDeg)
		w.bufB[i] = w.arena.Alloc(maxDeg)
	}
}

// release returns the worker to the pool, dropping per-pass references so
// a pooled worker never pins a graph, trie or sink.
func (w *trieWorker) release() {
	w.pins.release()
	w.g = nil
	w.vlabels = nil
	w.ops, w.roots = nil, nil
	w.pass = nil
	w.raw = [pattern.MaxVertices][]uint32{}
	for i := range w.outs {
		w.outs[i].order, w.outs[i].take = nil, nil
	}
	trieWorkerPool.Put(w)
}

// bind binds depth j to v, stamping the binding for the bases built on it.
func (w *trieWorker) bind(j int, v uint32) {
	w.match[j] = v
	w.tick++
	w.stamp[j] = w.tick
}

// runRoot scans the worker's armed level-0 range, claiming vertices one
// at a time (see steal.go) and running every root op over each. Under
// MatchLimit it publishes what each root vertex found, so every worker
// stops within one root vertex of the limit.
func (w *trieWorker) runRoot() {
	ps := w.pass
	for {
		v, ok := w.rng.next()
		if !ok {
			return
		}
		var before uint64
		if ps.limit > 0 {
			if atomic.LoadUint64(&ps.found) >= ps.limit {
				return
			}
			before = w.total()
		}
		w.match[0] = v // the vertex in hand: a root binds it if its label passes
		for _, r := range w.roots {
			w.exec(r, 0)
		}
		if ps.limit > 0 {
			if found := w.total() - before; found > 0 {
				atomic.AddUint64(&ps.found, found)
			}
		}
	}
}

// exec runs op id at depth, one switch over its kind (plan.OpKind). A root
// tests the vertex in hand, binds it, settles the plans ending there and
// runs its children. A count leaf counts its extensions without
// materializing them (countLeaf). A fan runs its members (fan). Any other
// node computes its candidate set once, settles the plans ending at it and
// counts its collapsed children over it (settle), and an OpBind node then
// binds each candidate and runs the children whose branch window holds it. An instrumented execution charges the set-operation
// clock as its op says: its own set building, or the whole execution of a
// leaf or a leaf's parent with one pair of clock reads.
func (w *trieWorker) exec(id int32, depth int) {
	op := &w.ops[id]
	var t0 time.Time
	timed := w.instrument && op.Clock != plan.ClockNone
	if timed {
		t0 = time.Now()
	}
	switch {
	case op.Kind >= plan.OpCountDegree: // a count leaf
		w.nstat[id].enters++
		lo, hi := trieWindow(op.Branches[0].TrieBranch, w.match, -1)
		if f, ok := levelFilter(w.g, lo, hi, op.Node.Label); ok {
			w.credit(op, id, w.countLeaf(op, id, depth, f))
		}
	case op.Kind <= plan.OpBindsNone: // a set to build
		ns := &w.nstat[id]
		ns.enters++
		// The poll point inside a block: one root's subtree can outlast any
		// deadline, and a node that is about to pay a set operation can afford
		// the load. What was counted so far stands, a valid partial.
		if w.pass.abort.Load() {
			return
		}
		cands := w.raw[depth] // a fan member's
		if op.Src != plan.SrcFan {
			cands = w.set(op, id, depth)
		}
		if timed && op.Clock == plan.ClockOwn {
			w.st.SetOpTime += time.Since(t0)
		}
		// Descendants (a leaf has none) may alias this raw (pre-window) set as
		// their base; it stays valid through the subtree recursion because
		// deeper levels own their own scratch buffers.
		if op.Kind != plan.OpSettle {
			w.raw[depth] = cands
		}
		// Per-branch symmetry windows depend only on the bound prefix:
		// resolve them once per node execution (into per-depth scratch — this
		// runs once per partial embedding, so it must not allocate) and clip
		// the shared candidate set to their union, so candidates no branch can
		// accept are never scanned. With a single branch — always, in a
		// one-leaf trie — this is exactly a single plan's symmetry pruning;
		// diverging branches keep whatever pruning their windows' union
		// allows.
		cands, wins := w.clip(op, depth, cands)
		ns.cands += uint64(len(cands))
		if op.Scan {
			cands = w.labeled(cands, op.Node.Label, depth)
		}
		if len(cands) > 0 && op.Settles {
			w.settle(op, id, depth, cands, wins)
		}
		if op.Kind != plan.OpBind {
			break
		}
		var ext uint64
		for _, v := range cands {
			used := false
			for j := 0; j < depth; j++ {
				if w.match[j] == v {
					used = true
					break
				}
			}
			if used {
				continue
			}
			ext++
			w.bind(depth, v)
			for bi := range op.Branches {
				if v < wins[bi].lo || v >= wins[bi].hi {
					continue
				}
				for _, c := range op.Branches[bi].Kids {
					w.exec(c, depth+1)
				}
			}
		}
		ns.ext += ext
	case op.Kind == plan.OpRoot:
		ns := &w.nstat[id]
		ns.enters++
		ns.cands++
		if v, l := w.match[0], op.Node.Label; l == pattern.Unlabeled || w.vlabels != nil && w.vlabels[v] == l {
			ns.ext++
			w.bind(0, v)
			for bi := range op.Branches { // depth 0 has no symmetry conditions
				br := &op.Branches[bi]
				for _, idx := range br.Leaves {
					if w.stream {
						w.deliver(idx, w.match[:1], 0)
					} else {
						w.counts[idx]++
					}
				}
				for _, c := range br.Kids {
					w.exec(c, 1)
				}
			}
		}
	default: // OpFan
		w.fan(op, depth)
	}
	if timed && op.Clock == plan.ClockWhole {
		w.st.SetOpTime += time.Since(t0)
	}
}

// fan runs a label fan's members at depth: one walk of the label directory
// of the vertex bound at f.At (graph.Graph.LabelGroups) finds each member's
// slice, the set the member's own connRow would have searched the directory
// for, and hands it in (raw[depth], the member's SrcFan). A member whose
// label is absent has an empty set: it is entered and, unless counted, goes
// no further, as exec would have run it — so every counter reads as if
// each member had run alone.
func (w *trieWorker) fan(f *plan.Op, depth int) {
	v := w.match[f.At]
	row, dir := w.pins.lrows.LabelGroups(v)
	i := 0
	for _, id := range f.Members() {
		m := &w.ops[id]
		for i < len(dir) && dir[i].Label < m.RowLabel {
			i++
		}
		var set []uint32
		if i < len(dir) && dir[i].Label == m.RowLabel {
			end := uint32(len(row))
			if i+1 < len(dir) {
				end = dir[i+1].Start
			}
			set = row[dir[i].Start:end]
		}
		if seen != nil {
			seen(seenOp{Worker: w.id, Op: m, V: v, Set: set})
		}
		if set != nil || m.Kind == plan.OpCountFan { // absent, a counted member still charges its empty count
			w.raw[depth] = set
			w.exec(id, depth)
		} else {
			w.nstat[id].enters++
		}
	}
}

// seen, when set, sees every held-base count, fan member and collapsed
// count with its operands; tests hold each against its reference. A
// held-base count has the base's generation Key, the Base and what the
// cursor left of it (Held), the binding Row and what its upper offset left
// of it (Cut), the kernels' filter F, the count N before the bound vertices
// are taken out, and Marked when it probed the base's bitmap. A fan member
// has the vertex V whose label directory the fan walked and the Set it was
// handed (nil: absent). A collapsed count has the parent's candidates C, the
// bound ones X among them, the base clipped to the window (Held) and the
// Fixed vertices.
var seen func(seenOp)

type seenOp struct {
	Worker                                 int
	Op                                     *plan.Op
	Key                                    uint64
	Base, Held, Row, Cut, C, X, Fixed, Set []uint32
	F                                      setops.Filter
	N                                      uint64
	V                                      uint32
	Marked                                 bool
}

// settle completes the plans that end at the executing node over their
// branch's window of its candidate set, less the vertices bound above it
// (a counting pass adds the window's size, a streaming pass hands the
// window to each plan's sink in one call, deliver), and counts its
// collapsed children over the same window by rank sums (rankCount): what
// the per-candidate loop would have counted, credited with exactly the
// totals it would have produced. A leaf's Extended is what it settled
// (sibling branches settle overlapping windows and plans ending on one
// branch settle it each, so that measures work done); a node whose
// children are all collapsed has the candidates less the bound ones.
func (w *trieWorker) settle(op *plan.Op, id int32, depth int, cands []uint32, wins []trieWin) {
	bound := w.boundIn(cands, &op.Node.Class)
	var settled uint64
	for bi := range op.Branches {
		br := &op.Branches[bi]
		if len(br.Leaves)+len(br.Coll) == 0 {
			continue
		}
		c, x := cands, bound // a single branch: the union is its window
		if len(wins) > 1 {
			c, x = setops.Clip(cands, wins[bi].lo, wins[bi].hi), setops.Clip(bound, wins[bi].lo, wins[bi].hi)
		}
		n := uint64(len(c) - len(x))
		if n == 0 { // a leaf no candidate reaches builds no base
			continue
		}
		for _, leaf := range br.Coll {
			w.nstat[leaf].enters += n
			w.credit(&w.ops[leaf], leaf, w.rankCount(leaf, c, x))
		}
		if w.stream && len(x) > 0 && len(br.Leaves) > 0 {
			c = w.without(c, x)
		}
		for _, idx := range br.Leaves {
			if w.stream {
				w.deliver(idx, c, depth)
			} else {
				w.counts[idx] += n
			}
		}
		settled += n * uint64(len(br.Leaves))
	}
	switch ns := &w.nstat[id]; op.Kind {
	case plan.OpSettle:
		ns.ext += settled
	case plan.OpBindsNone:
		ns.ext += uint64(len(cands) - len(bound))
	}
}

// labeled returns the vertices of cands that carry label want, in the
// depth's scratch (none on an unlabeled graph), for the nodes whose rows
// could not carry the label (plan.Op.Scan). The binding and delivering
// loops call or recurse per candidate, which keeps their index in memory,
// and a labeled level rejects most of what it scans — so the label is
// applied first, in a loop that stays in registers and, storing every vertex
// and keeping only the position of those that qualify, has no branch to
// mispredict.
func (w *trieWorker) labeled(cands []uint32, want int32, depth int) []uint32 {
	labels := w.vlabels
	if labels == nil {
		return nil
	}
	kept := w.lab[depth][:len(cands)] // a candidate set is never longer than a row
	n := 0
	for _, v := range cands {
		kept[n] = v
		if labels[v] == want {
			n++
		}
	}
	return kept[:n]
}

// credit books n extensions of a single-branch count-only leaf: the
// candidate set is never materialized, so the extension count stands in
// for both selectivity fields.
func (w *trieWorker) credit(leaf *plan.Op, id int32, n uint64) {
	for _, idx := range leaf.Branches[0].Leaves {
		w.counts[idx] += n
	}
	w.nstat[id].cands += n
	w.nstat[id].ext += n
}

// boundIn returns, in ascending order, the vertices bound above the
// executing node that are among its candidates — the ones the binding loop
// skips and a counting pass takes out of a window. Only the depths the
// pattern lets into the node's set (Bound) can be.
func (w *trieWorker) boundIn(cands []uint32, c *plan.Class) []uint32 {
	dst := w.xs[:0]
	for _, a := range c.Bound {
		if u := w.match[a]; setops.Contains(cands, u) {
			dst = append(dst, u)
		}
	}
	if len(dst) > 1 { // mostly none or one
		slices.Sort(dst)
	}
	return dst
}

// rankCount counts collapsed leaf id over its parent's candidates c, less
// the bound ones x. For a candidate v the leaf counts the base inside its
// window, [flo, fhi) owed to the levels above the parent with an end moved
// to v where that end depends on v, less the fixed vertices F — bound
// above the parent, inside the base and that window — and less v. Summed
// over c, each part is a rank sum (within): one merge of c against the
// clipped base and one against F, and the same over x taken back.
func (w *trieWorker) rankCount(id int32, c, x []uint32) uint64 {
	op := &w.ops[id]
	cl, d := &op.Node.Class, op.Node.Depth-1
	base := w.base(op, id)
	flo, fhi := trieWindow(op.Branches[0].TrieBranch, w.match, d)
	b, f := setops.Clip(base, flo, fhi), w.fs[:0]
	for i, a := range cl.Bound {
		if u := w.match[a]; a != d && u >= flo && u < fhi && (i < cl.NAlways || setops.Contains(base, u)) {
			f = append(f, u)
		}
	}
	slices.Sort(f)
	if seen != nil {
		seen(seenOp{Worker: w.id, Op: op, Held: b, C: c, X: x, Fixed: f})
	}
	n := w.within(op, c, b) - w.within(op, x, b)
	if len(f) > 0 {
		n += w.within(op, x, f) - w.within(op, c, f)
	}
	return n
}

// within sums, over the candidates c of a collapsed leaf's parent, the
// elements of sorted s inside each candidate v's window other than v:
// |s| less v when neither end depends on v, those above v or below v when
// one end does, none when both do.
func (w *trieWorker) within(op *plan.Op, c, s []uint32) uint64 {
	if len(c) == 0 || len(s) == 0 || op.LoDep && op.HiDep {
		return 0
	}
	below, equal := setops.RankPairs(c, s, &w.sst)
	switch all := uint64(len(c)) * uint64(len(s)); {
	case op.LoDep:
		return all - below - equal
	case op.HiDep:
		return below
	default:
		return all - equal
	}
}

// countLeaf counts a single-branch leaf's extensions passing f without
// materializing them, as its op says. A degree leaf reads a degree and no
// row; a rows leaf runs its own lists (countExtensions); a fan member
// counts the label slice its fan handed in as countExtensions counts its
// single row. A leaf over a held base makes one count-only kernel call
// against the row of v_d (none when the binding part is empty), minus the
// bound vertices it counted: the always depths that pass the filter, and
// the check depths that pass it, sit in the base and meet the binding part
// — binary searches in sets already held. A marked leaf whose v_d is no hub
// counts |B \ N(v_d)| in the window as |B| there less the row's elements
// found in B's bitmap (mark): one probe per element of the row, where a
// merge walks both. The kernels get the base from the window's low end on
// (held) and the binding row from there too where the graph serves the cut
// (rowPins.cutRow), so their own Clip searches neither. f is the level's
// whole filter (see countExtensions).
func (w *trieWorker) countLeaf(op *plan.Op, id int32, depth int, f setops.Filter) (n uint64) {
	node, c := op.Node, &op.Node.Class
	switch op.Kind {
	case plan.OpCountDegree:
		return w.pins.degreeCount(node.Connect[0], c.NAlways, &w.sst)
	case plan.OpCountFan:
		n = setops.CountF(w.raw[depth], kernelFilter(f, op.RowLabel), &w.sst)
		return w.pins.uncount(n, node.Connect, nil, c.Always(), c.Check(), f)
	case plan.OpCountRows:
		n, w.bufA[depth], w.bufB[depth] = w.pins.countExtensions(node.Connect, node.Disconnect, c.Always(), c.Check(), f, op.RowLabel, w.bufA[depth], w.bufB[depth], &w.sst)
		return n
	}
	base, kf := w.base(op, id), kernelFilter(f, op.RowLabel)
	held, marked := w.held(op, id, base, kf.Lo), false
	switch op.Kind {
	case plan.OpCountMerge:
		n = w.pins.intersectCountF(held, depth-1, kf, op.RowLabel, &w.sst)
	case plan.OpCountMarked:
		if w.g.HubBits(w.match[depth-1]) == nil {
			row := w.pins.cutRow(depth-1, pattern.Unlabeled, kf.Lo)
			n = uint64(len(setops.Clip(held, kf.Lo, kf.Hi))) - setops.IntersectBitsCountF(row, w.mark(op, id, base), kf, &w.sst)
			marked = true
			break
		}
		fallthrough // a hub's bitmap stands in for its row
	case plan.OpCountDiff:
		n = w.pins.differenceCountF(held, depth-1, kf, &w.sst)
	default: // OpCountHeld
		n = setops.CountF(held, kf, &w.sst)
	}
	if seen != nil {
		seen(seenOp{Worker: w.id, Op: op, Key: w.baseKey(op, id), Base: base, Held: held, Row: w.pins.row(depth - 1),
			Cut: w.pins.cutRow(depth-1, pattern.Unlabeled, kf.Lo), F: kf, N: n, Marked: marked})
	}
	for i, a := range c.Bound {
		if u := w.match[a]; f.Pass(u) && (i < c.NAlways || setops.Contains(base, u) && w.pins.qualifies(a, c.BConn, c.BDisc)) {
			n--
		}
	}
	return n
}

// baseKey names the generation of leaf id's held base, once base has
// returned it: a SrcBuilt base is keyed by its build stamp, a SrcRaw one by
// the stamp of the binding its ancestor A at depth At executed under. A runs
// once per binding of depth At-1 and assigns w.raw[At] as it starts;
// siblings of A overwrite w.raw[At] too, but only outside A's subtree, where
// the leaf never runs, so the key changes whenever the base can — also when
// a rebuild overwrites the base buffer in place. Keys are never 0.
func (w *trieWorker) baseKey(op *plan.Op, id int32) uint64 {
	if op.Src == plan.SrcBuilt {
		return w.nodes[id].stamp
	}
	return w.stamp[op.At-1]
}

// held returns leaf id's base from its first element ≥ lo on, resuming the
// leaf's cursor. Within one base generation (baseKey) a leaf's window mostly
// opens one past an ascending parent candidate, so its low end creeps up by
// an element or so per count: the cursor walks at most four elements and
// searches only the rest of the base past them. A new generation or a low
// end below the last one (set by a depth above the parent, which rebinds)
// starts over from the base's head.
func (w *trieWorker) held(op *plan.Op, id int32, base []uint32, lo uint32) []uint32 {
	c := &w.nodes[id].cursor
	if key := w.baseKey(op, id); c.key != key || lo < c.lo {
		*c = windowCursor{key: key}
	}
	at := int(c.at)
	for end := min(at+4, len(base)); at < end && base[at] < lo; {
		at++
	}
	if at < len(base) && base[at] < lo {
		at += setops.SearchAbove(base[at:], lo-1)
	}
	c.lo, c.at = lo, uint32(at)
	return base[at:]
}

// mark returns the bitmap of marked leaf id's base, marking the base first
// when its generation changed since the leaf last marked it (baseKey). Each
// leaf has its own bitmap, so sibling leaves over different bases do not
// undo each other's marks. The old bits are cleared from the leaf's copy of
// what it marked, never from the base buffer, which a rebuild overwrites in
// place. A mark charges the base's elements.
func (w *trieWorker) mark(op *plan.Op, id int32, base []uint32) []uint64 {
	m := &w.nodes[id].marks
	key := w.baseKey(op, id)
	if m.key == key {
		return m.words
	}
	if m.words == nil {
		m.words = make([]uint64, (w.g.NumVertices()+63)/64)
	}
	m.reset(0)
	m.ids, m.key = append(m.ids, base...), key
	for _, v := range base {
		m.words[v>>6] |= 1 << (v & 63)
	}
	w.sst.Elems += uint64(len(base))
	return m.words
}

// set materializes a node's raw (pre-window) candidate set, label-pure
// unless the node scans, from its op's source (a fan member's is handed in):
// its one row, its own lists through rowPins, or its base narrowed by the
// binding part. The result is worker scratch, a base, a pinned row or a
// label row — each valid through the node's subtree recursion, during which
// the depths above stay bound and deeper levels use their own scratch.
func (w *trieWorker) set(op *plan.Op, id int32, depth int) (cur []uint32) {
	node, c := op.Node, &op.Node.Class
	switch op.Src {
	case plan.SrcRow:
		return w.pins.connRow(node.Connect[0], op.RowLabel) // every level of a tree pattern: no scratch to hand around
	case plan.SrcRows:
		cur, w.bufA[depth], w.bufB[depth] = w.pins.candidates(node.Connect, node.Disconnect, op.RowLabel, w.bufA[depth], w.bufB[depth], &w.sst)
		return cur
	}
	cur = w.base(op, id)
	if len(c.BConn) > 0 {
		cur = w.pins.intersectNeighbors(w.bufA[depth], cur, depth-1, op.RowLabel, &w.sst)
	} else if len(c.BDisc) > 0 {
		cur = w.pins.differenceNeighbors(w.bufA[depth], cur, depth-1, &w.sst)
	}
	return cur
}

// base returns a node's base set: an ancestor's raw set, the node's own
// buffer — rebuilt first when its deepest operand was re-bound since the
// last build, so at most once per binding of that level — or, for a
// collapsed leaf with nothing to hoist, its single pinned row. A build
// runs all operands but the last through the depth's scratch (free: no
// node at this depth is executing) and the last into the buffer, which
// doubles up to the largest set it has held (≤ 4×MaxDegree words of arena).
func (w *trieWorker) base(op *plan.Op, id int32) []uint32 {
	node, c := op.Node, &op.Node.Class
	switch op.Src {
	case plan.SrcRaw:
		return w.raw[op.At]
	case plan.SrcBuilt:
	default:
		return w.pins.row(node.Connect[0])
	}
	b := &w.nodes[id]
	if b.stamp != w.stamp[op.At] {
		b.stamp = w.stamp[op.At]
		k := node.Depth
		var cur []uint32
		cur, w.bufA[k], w.bufB[k] = w.pins.candidates(c.PConn, c.PDisc, op.RowLabel, w.bufA[k], w.bufB[k], &w.sst)
		if cap(b.set) < len(cur) {
			b.set = w.arena.Alloc(max(len(cur), 2*cap(b.set)))
		}
		if c.LastDisc {
			b.set = w.pins.differenceNeighbors(b.set, cur, c.Last, &w.sst)
		} else {
			b.set = w.pins.intersectNeighbors(b.set, cur, c.Last, op.RowLabel, &w.sst)
		}
	}
	return b.set
}

// clip resolves the node's branch windows against the bound prefix, into
// per-depth scratch, and narrows the sorted candidate set to their union.
func (w *trieWorker) clip(op *plan.Op, depth int, cands []uint32) ([]uint32, []trieWin) {
	wins := w.wins[depth][:0]
	ulo, uhi := ^uint32(0), uint32(0)
	for bi := range op.Branches {
		lo, hi := trieWindow(op.Branches[bi].TrieBranch, w.match, -1)
		wins = append(wins, trieWin{lo, hi})
		ulo, uhi = min(ulo, lo), max(uhi, hi)
	}
	w.wins[depth] = wins
	if ulo > 0 || uhi < ^uint32(0) {
		cands = setops.Clip(cands, ulo, uhi)
	}
	return cands, wins
}

// trieWindow resolves a branch's symmetry conditions against the bound
// prefix as a half-open window [lo, hi), leaving out level skip (-1: none).
func trieWindow(br *plan.TrieBranch, match []uint32, skip int) (lo, hi uint32) {
	lo, hi = 0, ^uint32(0)
	for _, j := range br.Greater {
		if j != skip && match[j]+1 > lo {
			lo = match[j] + 1
		}
	}
	for _, j := range br.Smaller {
		if j != skip && match[j] < hi {
			hi = match[j]
		}
	}
	return lo, hi
}
