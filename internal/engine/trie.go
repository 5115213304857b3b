package engine

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
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
// coordinate through, and what the workers read about the trie (the
// per-node classes). It is a
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

	tr        *plan.Trie
	lrows     labelRower                 // the graph, when it serves label rows
	above     []uint32                   // the graph's upper-row offsets, when it serves them
	scans     bool                       // some labeled node has no row to carry its label and scans
	marks     bool                       // some leaf is a marked leaf (mark)
	sinks     []Sink                     // per plan; nil: counting pass
	info      []trieExecInfo             // per node ID
	nodes     []*plan.TrieNode           // parents before children, the order Stats.TrieNodes reports
	rowLabels [pattern.MaxVertices]int32 // loadNode: the rowLabel of the node in hand's ancestor at each depth

	// What the binding loops run (loadRuns): per node ID its branches' runs,
	// carved from the buffers below them, which only grow.
	runs    [][]branchRun
	runBuf  []branchRun
	kids    []*plan.TrieNode
	fans    []labelFan
	members []*plan.TrieNode
	group   []*plan.TrieNode // loadRuns: one branch's fan candidates

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
	clear(ps.info)
	clear(ps.nodes)
	clear(ps.runs)
	clear(ps.runBuf)
	clear(ps.kids)
	clear(ps.fans)
	clear(ps.members)
	clear(ps.group[:cap(ps.group)])
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
	ps.loadClasses()

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
		TrieNodes:        make([]TrieNodeStats, len(ps.nodes)),
	}}
	st := &snap.Stats
	st.Levels = snap.levels[:tr.MaxDepth]
	for i, node := range ps.nodes {
		agg := &st.TrieNodes[i]
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

// trieExecInfo is a node's class as a pass runs it, in one dense array so
// an execution reads one cache line of flags: its plan.Class and what
// MergePlans made of it (plan.TrieNode), plus what depends on the pass.
// src is where the base lives: nowhere (srcRows: the node runs its own
// lists), the node's own buffer (srcBuilt), or the raw set the ancestor at
// depth At materialized (srcRaw), if that ancestor's rows carry no label.
// A labeled node reading a Connect row of its own, on a graph that serves
// label rows, passes rowLabel to rowPins and gets a label-pure set; any
// other scans what it materialized (labeled, or Filter.Labels). A
// streaming pass collapses nothing and counts no leaf without its set.
type trieExecInfo struct {
	// What every execution reads comes first, on one cache line.
	src       baseSrc
	leaf      bool // every branch is childless: the node binds nothing
	settles   bool // some branch completes a plan (settle)
	counted   bool // counting pass: a leaf of one branch, counted without its set (countLeaf)
	degree    bool // counting pass: a degree leaf
	timeWhole bool // counting pass, leaf or parent of one: Instrument clocks the whole execution
	collapsed bool // counted by its parent (countCollapsed), never executed
	bindsNone bool // every child is collapsed
	loDep     bool // collapsed: the window's low / high end depends on v_d
	hiDep     bool
	scan      bool  // labeled, and no operand row carries the label
	rowLabel  int32 // the label the operand rows carry; Unlabeled: whole rows
	plan.Class

	collBranches []int // the branches with a collapsed child, or with leaves when bindsNone
}

type baseSrc uint8

const srcRows, srcRaw, srcBuilt baseSrc = 0, 1, 2

// loadClasses fills ps.info, ps.nodes and ps.runs for the pass's trie, once
// per pass, so an execution only reads flags (reading the trie's nodes per
// execution is measurably slower on the decode-bound tier).
func (ps *triePass) loadClasses() {
	n := ps.tr.Nodes
	if cap(ps.info) < n {
		ps.info, ps.nodes, ps.runs = make([]trieExecInfo, n), make([]*plan.TrieNode, 0, n), make([][]branchRun, n)
		ps.kids, ps.fans = make([]*plan.TrieNode, 0, n), make([]labelFan, 0, n)
		ps.members, ps.group = make([]*plan.TrieNode, 0, n), make([]*plan.TrieNode, 0, n)
	}
	ps.info, ps.nodes, ps.runs = ps.info[:n], ps.nodes[:0], ps.runs[:n]
	ps.kids, ps.fans, ps.members = ps.kids[:0], ps.fans[:0], ps.members[:0]
	if b := n + len(ps.tr.Plans); cap(ps.runBuf) < b { // a branch holds a child or a leaf
		ps.runBuf = make([]branchRun, 0, b)
	}
	ps.runBuf = ps.runBuf[:0]
	ps.scans, ps.marks = false, false
	for _, r := range ps.tr.Roots {
		ps.loadNode(r)
	}
}

func (ps *triePass) loadNode(n *plan.TrieNode) {
	ps.nodes = append(ps.nodes, n)
	ei := &ps.info[n.ID]
	*ei = trieExecInfo{rowLabel: pattern.Unlabeled, Class: n.Class}
	if ei.Built {
		ei.src = srcBuilt
		// The deepest ancestor with the base's lists whose raw set is whole:
		// one whose rows carried its label materialized that label's share.
		for raw := ei.Raw; raw != 0; {
			a := bits.Len16(raw) - 1
			if ps.rowLabels[a] == pattern.Unlabeled {
				ei.src, ei.At = srcRaw, a
				break
			}
			raw &^= 1 << a
		}
	}
	if n.Label != pattern.Unlabeled && n.Depth > 0 { // a root tests its own vertex
		if ps.lrows != nil && (ei.src != srcRaw || len(ei.BConn) > 0) {
			ei.rowLabel = n.Label
		} else {
			ei.scan, ps.scans = true, true
		}
	}
	ps.rowLabels[n.Depth] = ei.rowLabel
	ei.leaf, ei.timeWhole = n.Leaf, n.Leaf
	for _, b := range n.Branches {
		ei.settles = ei.settles || len(b.Leaves) > 0
		for _, child := range b.Children {
			ps.loadNode(child)
			ei.timeWhole = ei.timeWhole || child.Leaf
		}
	}
	ps.loadRuns(n)
	if ps.sinks != nil {
		ei.timeWhole = false
		return
	}
	ei.counted, ei.degree = n.Leaf && len(n.Branches) == 1, n.Degree
	ei.collapsed, ei.bindsNone = n.Collapsed, n.BindsNone
	ps.marks = ps.marks || n.Marked
	ei.loDep, ei.hiDep, ei.collBranches = n.LoDep, n.HiDep, n.CollBranches
}

// branchRun is what the binding loop runs below a candidate one branch's
// window passes: the children it executes one by one, and its label fans.
type branchRun struct {
	kids []*plan.TrieNode
	fans []labelFan
}

// labelFan is two or more children of one branch that read the label
// slices of the one row of the vertex bound at depth at — each a node with
// that single Connect row, no Disconnect row and a label the row carries
// (trieExecInfo.rowLabel) — so they differ only in their label. The binding
// loop runs them together (fan): one walk of the row's label directory
// finds every member's slice. Members are in ascending label order; the
// trie shares nodes on (Label, Connect, Disconnect), so no label repeats.
type labelFan struct {
	at      int
	members []*plan.TrieNode
}

// loadRuns fills ps.runs[n.ID], one run per branch of n, once n's children
// are loaded: the collapsed children are left to n (countCollapsed), those
// reading the label slices of one row are fanned when there are two or
// more, and the rest run one by one. The runs are carved from buffers sized
// for the whole trie up front, so nothing here allocates once they have
// grown to the largest trie a pooled pass has run. Unlabeled tries have no
// fan.
func (ps *triePass) loadRuns(n *plan.TrieNode) {
	at := len(ps.runBuf)
	ps.runBuf = ps.runBuf[:at+len(n.Branches)]
	runs := ps.runBuf[at:len(ps.runBuf):len(ps.runBuf)]
	for bi, br := range n.Branches {
		k0, f0, group := len(ps.kids), len(ps.fans), ps.group[:0]
		for _, c := range br.Children {
			switch ci := &ps.info[c.ID]; {
			case ci.collapsed:
			case ci.rowLabel != pattern.Unlabeled && len(c.Connect) == 1 && len(c.Disconnect) == 0:
				group = append(group, c)
			default:
				ps.kids = append(ps.kids, c)
			}
		}
		slices.SortFunc(group, func(a, b *plan.TrieNode) int {
			return cmp.Or(cmp.Compare(a.Connect[0], b.Connect[0]), cmp.Compare(a.Label, b.Label))
		})
		for len(group) > 0 {
			k := 1
			for k < len(group) && group[k].Connect[0] == group[0].Connect[0] {
				k++
			}
			if k == 1 {
				ps.kids = append(ps.kids, group[0])
			} else {
				m0 := len(ps.members)
				ps.members = append(ps.members, group[:k]...)
				ps.fans = append(ps.fans, labelFan{group[0].Connect[0], ps.members[m0:len(ps.members):len(ps.members)]})
			}
			group = group[k:]
		}
		runs[bi] = branchRun{ps.kids[k0:len(ps.kids):len(ps.kids)], ps.fans[f0:len(ps.fans):len(ps.fans)]}
	}
	ps.runs[n.ID] = runs
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
	tr         *plan.Trie
	info       []trieExecInfo
	runs       [][]branchRun
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
	raw   [pattern.MaxVertices][]uint32 // last raw (pre-window) candidate set, the srcRaw bases
	lab   [pattern.MaxVertices][]uint32 // scanning labeled levels: the candidates carrying the label
	wins  [pattern.MaxVertices][]trieWin
	match []uint32
	xs    [pattern.MaxVertices]uint32 // countCollapsed: the bound candidates
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
	bases []trieBase // per node, srcBuilt only; buffers sized by need

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

	// Marked leaves (mark), last so that no field above moves: per node, the
	// bitmap of the base a count-only difference leaf last marked.
	marks []leafMarks

	// Per node, where a count leaf over a held base last cut it (held).
	cursors []windowCursor
}

// trieNodeCount is one node's selectivity: partial embeddings reaching it,
// candidates its shared computation produced, candidates surviving its
// filters.
type trieNodeCount struct{ enters, cands, ext uint64 }

// trieWin is one branch's resolved symmetry window, half-open [lo, hi).
type trieWin struct {
	lo, hi uint32
}

// trieBase is a node's built base set and the stamp of its deepest operand
// at build time (0: never built in this pass).
type trieBase struct {
	set   []uint32
	stamp uint64
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
	w.pins.lrows, w.pins.above = ps.lrows, ps.above
	w.pins.bind(w.match)
	w.tr = tr
	w.info, w.runs = ps.info, ps.runs
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
	if len(w.bases) < nodes {
		w.bases = append(w.bases, make([]trieBase, nodes-len(w.bases))...)
	}
	for i := range w.bases {
		w.bases[i].stamp = 0 // buffers stay: they are capacity, not content
	}
	if len(w.cursors) < nodes {
		w.cursors = make([]windowCursor, nodes)
	}
	// No cut of an earlier pass, or graph, survives.
	clear(w.cursors)
	if ps.marks { // a pass without marked leaves leaves the bits to the next pass with some
		if len(w.marks) < nodes {
			w.marks = append(w.marks, make([]leafMarks, nodes-len(w.marks))...)
		}
		for i, words := 0, (g.NumVertices()+63)/64; i < len(w.marks); i++ {
			w.marks[i].reset(words) // no bit of an earlier pass, or graph, survives
		}
	}
	for i := 0; ps.scans && i < w.d && w.lab[i] == nil; i++ {
		w.lab[i] = w.alloc(w.maxDeg)
	}
	if w.stream {
		if len(w.outs) < plans {
			w.outs = append(w.outs, make([]trieOut, plans-len(w.outs))...)
		}
		for i, pl := range tr.Plans {
			o := &w.outs[i]
			if o.m == nil {
				o.m = w.alloc(pattern.MaxVertices)
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

// alloc returns an empty buffer of capacity n from the worker's arena,
// valid until the next reshape.
func (w *trieWorker) alloc(n int) []uint32 { return w.arena.Alloc(n) }

// reshape (re)builds the worker's per-depth scratch for a deeper trie or a
// higher degree, carving every uint32 buffer from the arena (after a Reset,
// since the previous shape's buffers — the built bases among them — alias
// the same slabs).
func (w *trieWorker) reshape(d, maxDeg int) {
	w.d, w.maxDeg = d, maxDeg
	w.arena.Reset()
	w.match = w.alloc(d)[:d]
	w.tail = w.alloc(maxDeg)
	w.lab = [pattern.MaxVertices][]uint32{}
	clear(w.bases)
	clear(w.outs)
	for i := 0; i < d; i++ {
		w.bufA[i] = w.alloc(maxDeg)
		w.bufB[i] = w.alloc(maxDeg)
	}
}

// release returns the worker to the pool, dropping per-pass references so
// a pooled worker never pins a graph, trie or sink.
func (w *trieWorker) release() {
	w.pins.release()
	w.g = nil
	w.vlabels = nil
	w.tr = nil
	w.info, w.runs = nil, nil
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
// at a time (see steal.go) and pushing each through every root node. Under
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
		for _, root := range w.tr.Roots {
			ns := &w.nstat[root.ID]
			ns.enters++
			ns.cands++
			if !hasLabel(w.vlabels, v, root.Label) {
				continue
			}
			ns.ext++
			w.bind(0, v)
			// Depth-0 nodes carry no symmetry conditions (no earlier levels).
			runs := w.runs[root.ID]
			for bi, br := range root.Branches {
				for _, idx := range br.Leaves {
					if w.stream {
						w.deliver(idx, w.match[:1], 0)
					} else {
						w.counts[idx]++
					}
				}
				r := &runs[bi]
				for _, child := range r.kids {
					w.exec(child, 1, w.instrument, nil)
				}
				for i := range r.fans {
					w.fan(&r.fans[i], 1, w.instrument)
				}
			}
		}
		if ps.limit > 0 {
			if found := w.total() - before; found > 0 {
				atomic.AddUint64(&ps.found, found)
			}
		}
	}
}

// exec runs one shared node at the given depth: compute the candidate set
// once, count the collapsed children over all of it, settle the plans that
// end here over their branches' windows of it (settle), then bind each
// candidate and recurse into the children whose branch window holds it
// (what each branch runs is its branchRun: children one by one, label
// siblings as a fan). A fan hands a member the raw set it found for it
// (raw); any other execution passes nil and computes its set. A node whose
// branches are all childless binds nothing, and neither does one whose
// children are all collapsed. A counting pass's leaf of one branch
// never materializes its set (countLeaf). timed is Instrument minus any
// ancestor already clocking this execution: a node with a leaf child
// charges its whole execution (the subtree below is set building and leaf
// counting) to SetOpTime with one pair of clock reads, any other node only
// its own set building.
func (w *trieWorker) exec(node *plan.TrieNode, depth int, timed bool, raw []uint32) {
	ei := &w.info[node.ID]
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	whole := timed && ei.timeWhole
	ns := &w.nstat[node.ID]
	ns.enters++
	if ei.counted {
		lo, hi := trieWindow(node.Branches[0], w.match, -1)
		if f, ok := levelFilter(w.g, lo, hi, node.Label); ok {
			w.credit(node, w.countLeaf(node, ei, depth, f, raw))
		}
		if whole {
			w.st.SetOpTime += time.Since(t0)
		}
		return
	}
	// The poll point inside a block: one root's subtree can outlast any
	// deadline, and a node that is about to pay a set operation can afford
	// the load. What was counted so far stands, a valid partial.
	if w.pass.abort.Load() {
		return
	}
	cands := raw
	if cands == nil {
		cands = w.set(node, ei, depth)
	}
	if timed && !whole {
		w.st.SetOpTime += time.Since(t0)
	}
	// Descendants (a leaf has none) may alias this raw (pre-window) set as
	// their base; it stays valid through the subtree recursion because
	// deeper levels own their own scratch buffers.
	if !ei.leaf {
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
	cands, wins := w.clip(node, depth, cands)
	ns.cands += uint64(len(cands))
	if ei.scan {
		cands = w.labeled(cands, node.Label, depth)
	}
	done := ei.leaf // nothing left to bind
	if len(cands) > 0 && (ei.settles || len(ei.collBranches) > 0) {
		done = w.settle(node, ei, depth, cands, wins)
	}
	if done {
		if whole {
			w.st.SetOpTime += time.Since(t0)
		}
		return
	}
	var ext uint64
	runs := w.runs[node.ID]
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
		for bi := range runs {
			if v < wins[bi].lo || v >= wins[bi].hi {
				continue
			}
			r := &runs[bi]
			for _, child := range r.kids {
				w.exec(child, depth+1, timed && !whole, nil)
			}
			for i := range r.fans {
				w.fan(&r.fans[i], depth+1, timed && !whole)
			}
		}
	}
	ns.ext += ext
	if whole {
		w.st.SetOpTime += time.Since(t0)
	}
}

// fan runs a label fan's members at depth: one walk of the label directory
// of the vertex bound at f.at (graph.Graph.LabelGroups) finds each member's
// slice, the set the member's own connRow would have searched the directory
// for, and hands it in. A member whose label is absent has an empty set: it
// is entered and, unless counted, goes no further, as exec would have run
// it — so every counter reads as if each member had run alone.
func (w *trieWorker) fan(f *labelFan, depth int, timed bool) {
	v := w.match[f.at]
	row, dir := w.pins.lrows.LabelGroups(v)
	i := 0
	for _, m := range f.members {
		for i < len(dir) && dir[i].Label < m.Label {
			i++
		}
		var set []uint32
		if i < len(dir) && dir[i].Label == m.Label {
			end := uint32(len(row))
			if i+1 < len(dir) {
				end = dir[i+1].Start
			}
			set = row[dir[i].Start:end]
		}
		if fanSeen != nil {
			fanSeen(w.id, m, v, m.Label, set)
		}
		if set != nil || w.info[m.ID].counted { // absent, a counted member still charges its empty count
			w.exec(m, depth, timed, set)
		} else {
			w.nstat[m.ID].enters++
		}
	}
}

// fanSeen, when set, sees every fan member's set: the member, the vertex
// whose row the fan walked, the member's label and the slice it was handed
// (nil: absent). Tests hold each against LabelRow.
var fanSeen func(worker int, node *plan.TrieNode, v uint32, label int32, set []uint32)

// settle counts the executing node's collapsed children over its candidate
// set and completes the plans that end at the node over their branch's
// window of it, less the vertices bound above it: a counting pass adds the
// window's size, a streaming pass hands the window to each plan's sink in
// one call (deliver). It reports whether the node binds nothing more: a
// childless node, whose Extended is what it settled (sibling branches
// settle overlapping windows and plans ending on one branch settle it
// each, so that measures work done), or one whose children are all
// collapsed, whose Extended is the candidates less the bound ones.
func (w *trieWorker) settle(node *plan.TrieNode, ei *trieExecInfo, depth int, cands []uint32, wins []trieWin) (bindsNone bool) {
	bound := w.boundIn(cands, ei)
	if len(ei.collBranches) > 0 { // a counting pass: a streaming one collapses nothing
		w.countCollapsed(node, ei, cands, bound, wins)
	}
	var settled uint64
	for bi, br := range node.Branches {
		if len(br.Leaves) == 0 {
			continue
		}
		c, x := cands, bound // a single branch: the union is its window
		if len(wins) > 1 {
			c, x = setops.Clip(cands, wins[bi].lo, wins[bi].hi), setops.Clip(bound, wins[bi].lo, wins[bi].hi)
		}
		n := uint64(len(c) - len(x))
		if n == 0 {
			continue
		}
		if w.stream && len(x) > 0 {
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
	switch ns := &w.nstat[node.ID]; {
	case ei.leaf:
		ns.ext += settled
	case ei.bindsNone:
		ns.ext += uint64(len(cands) - len(bound))
	default:
		return false
	}
	return true
}

// labeled returns the vertices of cands that carry label want, in the
// depth's scratch (none on an unlabeled graph), for the nodes whose rows
// could not carry the label (trieExecInfo.scan). The binding and delivering
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
func (w *trieWorker) credit(leaf *plan.TrieNode, n uint64) {
	for _, idx := range leaf.Branches[0].Leaves {
		w.counts[idx] += n
	}
	w.nstat[leaf.ID].cands += n
	w.nstat[leaf.ID].ext += n
}

// boundIn returns, in ascending order, the vertices bound above the
// executing node that are among its candidates — the ones the binding loop
// skips and a counting pass takes out of a window. Only the depths the
// pattern lets into the node's set (Bound) can be.
func (w *trieWorker) boundIn(cands []uint32, ei *trieExecInfo) []uint32 {
	dst := w.xs[:0]
	for _, a := range ei.Bound {
		if u := w.match[a]; setops.Contains(cands, u) {
			dst = append(dst, u)
		}
	}
	if len(dst) > 1 { // mostly none or one
		slices.Sort(dst)
	}
	return dst
}

// countCollapsed counts the executing node's collapsed children for every
// candidate a branch passes but the bound vertices among them: what the
// per-candidate loop would have counted, credited with exactly the totals
// it would have produced. A leaf no candidate reaches builds no base.
func (w *trieWorker) countCollapsed(node *plan.TrieNode, ei *trieExecInfo, cands, bound []uint32, wins []trieWin) {
	for _, bi := range ei.collBranches {
		br, win, c, x := node.Branches[bi], wins[bi], cands, bound
		if len(wins) > 1 && (win.lo > 0 || win.hi < ^uint32(0)) { // else cands is already inside the window
			c, x = setops.Clip(cands, win.lo, win.hi), setops.Clip(bound, win.lo, win.hi)
		}
		enters := uint64(len(c) - len(x))
		for _, leaf := range br.Children {
			if li := &w.info[leaf.ID]; li.collapsed && enters > 0 {
				w.nstat[leaf.ID].enters += enters
				w.credit(leaf, w.rankCount(leaf, li, c, x))
			}
		}
	}
}

// rankCount counts a collapsed leaf over its parent's candidates c, less
// the bound ones x. For a candidate v the leaf counts the base inside its
// window, [flo, fhi) owed to the levels above the parent with an end moved
// to v where that end depends on v, less the fixed vertices F — bound
// above the parent, inside the base and that window — and less v. Summed
// over c, each part is a rank sum (within): one merge of c against the
// clipped base and one against F, and the same over x taken back.
func (w *trieWorker) rankCount(leaf *plan.TrieNode, ei *trieExecInfo, c, x []uint32) uint64 {
	d := leaf.Depth - 1
	base := w.base(leaf, ei)
	flo, fhi := trieWindow(leaf.Branches[0], w.match, d)
	b, f := setops.Clip(base, flo, fhi), w.fs[:0]
	for i, a := range ei.Bound {
		if u := w.match[a]; a != d && u >= flo && u < fhi && (i < ei.NAlways || setops.Contains(base, u)) {
			f = append(f, u)
		}
	}
	slices.Sort(f)
	if collapsedSeen != nil {
		collapsedSeen(ei, c, x, b, f)
	}
	n := w.within(ei, c, b) - w.within(ei, x, b)
	if len(f) > 0 {
		n += w.within(ei, x, f) - w.within(ei, c, f)
	}
	return n
}

// within sums, over the candidates c of a collapsed leaf's parent, the
// elements of sorted s inside each candidate v's window other than v:
// |s| less v when neither end depends on v, those above v or below v when
// one end does, none when both do.
func (w *trieWorker) within(ei *trieExecInfo, c, s []uint32) uint64 {
	if len(c) == 0 || len(s) == 0 || ei.loDep && ei.hiDep {
		return 0
	}
	below, equal := setops.RankPairs(c, s, &w.sst)
	switch all := uint64(len(c)) * uint64(len(s)); {
	case ei.loDep:
		return all - below - equal
	case ei.hiDep:
		return below
	default:
		return all - equal
	}
}

// collapsedSeen, when set, sees the operands of every collapsed-leaf count:
// tests record which shapes ran.
var collapsedSeen func(ei *trieExecInfo, c, x, b, f []uint32)

// countLeaf counts a single-branch leaf's extensions passing f without
// materializing them; a degree leaf reads a degree and no row. With a
// hoisted base that is one count-only kernel call against the row of v_d
// (none when the binding part is empty), minus the bound vertices it
// counted: the always depths that pass the filter, and the check depths
// that pass it, sit in the base and meet the binding part — binary
// searches in sets already held. A marked leaf whose v_d is no hub counts
// |B \ N(v_d)| in the window as |B| there less the row's elements found
// in B's bitmap (mark): one probe per element of the row, where a merge
// walks both. The kernels get the base from the window's low end on (held)
// and the binding row from there too where the graph serves the cut
// (rowPins.cutRow), so their own Clip searches neither. f is the level's
// whole filter (see countExtensions). A fan member counts the label slice
// its fan handed in (raw) as countExtensions counts its single row.
func (w *trieWorker) countLeaf(node *plan.TrieNode, ei *trieExecInfo, depth int, f setops.Filter, raw []uint32) (n uint64) {
	switch {
	case ei.degree:
		return w.pins.degreeCount(node.Connect[0], ei.NAlways, &w.sst)
	case raw != nil:
		n = setops.CountF(raw, kernelFilter(f, ei.rowLabel), &w.sst)
		return w.pins.uncount(n, node.Connect, nil, ei.Always(), ei.Check(), f)
	case ei.src == srcRows:
		n, w.bufA[depth], w.bufB[depth] = w.pins.countExtensions(node.Connect, node.Disconnect, ei.Always(), ei.Check(), f, ei.rowLabel, w.bufA[depth], w.bufB[depth], &w.sst)
		return n
	}
	base, kf := w.base(node, ei), kernelFilter(f, ei.rowLabel)
	held := w.held(node.ID, ei, base, kf.Lo)
	if windowSeen != nil {
		windowSeen(w.id, node, w.baseKey(node.ID, ei), base, held, w.pins.row(depth-1), w.pins.cutRow(depth-1, pattern.Unlabeled, kf.Lo), kf.Lo)
	}
	switch {
	case len(ei.BConn) > 0:
		n = w.pins.intersectCountF(held, depth-1, kf, ei.rowLabel, &w.sst)
	case ei.Mark && w.g.HubBits(w.match[depth-1]) == nil: // counted, so a marked leaf
		row := w.pins.cutRow(depth-1, pattern.Unlabeled, kf.Lo)
		n = uint64(len(setops.Clip(held, kf.Lo, kf.Hi))) - setops.IntersectBitsCountF(row, w.mark(node.ID, ei, base), kf, &w.sst)
		if markedSeen != nil {
			markedSeen(w.id, node, base, row, kf, n)
		}
	case len(ei.BDisc) > 0:
		n = w.pins.differenceCountF(held, depth-1, kf, &w.sst)
	default:
		n = setops.CountF(held, kf, &w.sst)
	}
	for i, a := range ei.Bound {
		if u := w.match[a]; f.Pass(u) && (i < ei.NAlways || setops.Contains(base, u) && w.pins.qualifies(a, ei.BConn, ei.BDisc)) {
			n--
		}
	}
	return n
}

// baseKey names the generation of leaf id's held base, once base has
// returned it: a srcBuilt base is keyed by its build stamp, a srcRaw one by
// the stamp of the binding its ancestor A at depth At executed under. A runs
// once per binding of depth At-1 and assigns w.raw[At] as it starts;
// siblings of A overwrite w.raw[At] too, but only outside A's subtree, where
// the leaf never runs, so the key changes whenever the base can — also when
// a rebuild overwrites the base buffer in place. Keys are never 0.
func (w *trieWorker) baseKey(id int, ei *trieExecInfo) uint64 {
	if ei.src == srcBuilt {
		return w.bases[id].stamp
	}
	return w.stamp[ei.At-1]
}

// held returns leaf id's base from its first element ≥ lo on, resuming the
// leaf's cursor. Within one base generation (baseKey) a leaf's window mostly
// opens one past an ascending parent candidate, so its low end creeps up by
// an element or so per count: the cursor walks at most four elements and
// searches only the rest of the base past them. A new generation or a low
// end below the last one (set by a depth above the parent, which rebinds)
// starts over from the base's head.
func (w *trieWorker) held(id int, ei *trieExecInfo, base []uint32, lo uint32) []uint32 {
	c := &w.cursors[id]
	if key := w.baseKey(id, ei); c.key != key || lo < c.lo {
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

// windowSeen, when set, sees every held-base count: the base's generation
// key, the base and what held left of it, the binding row and what cutRow
// left of it, and the window's low end. Tests hold each cut against
// setops.Clip.
var windowSeen func(worker int, leaf *plan.TrieNode, key uint64, base, held, row, cut []uint32, lo uint32)

// mark returns the bitmap of marked leaf id's base, marking the base first
// when its generation changed since the leaf last marked it (baseKey). Each
// leaf has its own bitmap, so sibling leaves over different bases do not
// undo each other's marks. The old bits are cleared from the leaf's copy of
// what it marked, never from the base buffer, which a rebuild overwrites in
// place. A mark charges the base's elements.
func (w *trieWorker) mark(id int, ei *trieExecInfo, base []uint32) []uint64 {
	m := &w.marks[id]
	key := w.baseKey(id, ei)
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

// markedSeen, when set, sees the operands and count of every marked-leaf
// count: tests hold it against the merge.
var markedSeen func(worker int, leaf *plan.TrieNode, base, row []uint32, f setops.Filter, n uint64)

// set materializes a node's raw (pre-window) candidate set, label-pure
// unless the node scans: its base narrowed by the binding part, or its own
// lists through rowPins when nothing is hoisted. The result is worker
// scratch, a base, a pinned row or a label row — each valid through the
// node's subtree recursion, during which the depths above stay bound and
// deeper levels use their own scratch.
func (w *trieWorker) set(node *plan.TrieNode, ei *trieExecInfo, depth int) (cur []uint32) {
	if ei.src == srcRows {
		if len(node.Connect) == 1 && len(node.Disconnect) == 0 {
			return w.pins.connRow(node.Connect[0], ei.rowLabel) // every level of a tree pattern: no scratch to hand around
		}
		cur, w.bufA[depth], w.bufB[depth] = w.pins.candidates(node.Connect, node.Disconnect, ei.rowLabel, w.bufA[depth], w.bufB[depth], &w.sst)
		return cur
	}
	cur = w.base(node, ei)
	if len(ei.BConn) > 0 {
		cur = w.pins.intersectNeighbors(w.bufA[depth], cur, depth-1, ei.rowLabel, &w.sst)
	} else if len(ei.BDisc) > 0 {
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
func (w *trieWorker) base(node *plan.TrieNode, ei *trieExecInfo) []uint32 {
	switch ei.src {
	case srcRows:
		return w.pins.row(node.Connect[0])
	case srcRaw:
		return w.raw[ei.At]
	}
	b := &w.bases[node.ID]
	if b.stamp != w.stamp[ei.At] {
		b.stamp = w.stamp[ei.At]
		k := node.Depth
		var cur []uint32
		cur, w.bufA[k], w.bufB[k] = w.pins.candidates(ei.PConn, ei.PDisc, ei.rowLabel, w.bufA[k], w.bufB[k], &w.sst)
		if cap(b.set) < len(cur) {
			b.set = w.alloc(max(len(cur), 2*cap(b.set)))
		}
		if ei.LastDisc {
			b.set = w.pins.differenceNeighbors(b.set, cur, ei.Last, &w.sst)
		} else {
			b.set = w.pins.intersectNeighbors(b.set, cur, ei.Last, ei.rowLabel, &w.sst)
		}
	}
	return b.set
}

// clip resolves the node's branch windows against the bound prefix, into
// per-depth scratch, and narrows the sorted candidate set to their union.
func (w *trieWorker) clip(node *plan.TrieNode, depth int, cands []uint32) ([]uint32, []trieWin) {
	wins := w.wins[depth][:0]
	ulo, uhi := ^uint32(0), uint32(0)
	for _, br := range node.Branches {
		lo, hi := trieWindow(br, w.match, -1)
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
