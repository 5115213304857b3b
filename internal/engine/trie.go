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

// Trie-driven multi-pattern execution: the generic counterpart of
// AutoZero's merged schedule interpreter, operating on a plan.Trie built
// by plan.MergePlans from any engine's plans. One pass over the data
// graph enumerates each shared partial embedding once and fans out into
// the per-pattern subtrees, accumulating a count per leaf pattern. The
// executor reuses the backtracking executor's machinery wholesale: the
// adaptive set-operation entry points (hub-aware intersections,
// count-only childless leaves), the atomic block cursor with tail
// stealing, cooperative cancellation, and worker panic containment.

// Planner is implemented by engines whose execution is driven by
// exploration plans, exposing enough for the trie path to mine a whole
// winner set with the engine's own matching orders: the plan the engine
// would use for a pattern, and the executor configuration it would run
// it with. All four engine models implement it.
type Planner interface {
	Engine
	// PlanPattern builds the exploration plan the engine would execute
	// for p on g (g matters to engines that pick orders by cost model).
	PlanPattern(g graph.Adjacency, p *pattern.Pattern) (*plan.Plan, error)
	// ExecConfig returns the engine's executor options and observer.
	ExecConfig() (ExecOptions, *obs.Observer)
}

// BuildTrie merges the engine's plans for ps into a prefix trie, without
// executing anything — callers inspect the trie's sharing statistics to
// decide between one-pass and per-pattern execution.
func BuildTrie(e Planner, g graph.Adjacency, ps []*pattern.Pattern) (*plan.Trie, error) {
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

// BacktrackTrie mines every pattern of the merged trie in one pass,
// returning one count per plan (in tr.Plans order). Counting only — the
// trie path exists for CountAll-style workloads; streaming visitors and
// MatchLimit stay on the per-pattern executor.
func BacktrackTrie(g graph.Adjacency, tr *plan.Trie, opts ExecOptions, o *obs.Observer) ([]uint64, *Stats, error) {
	return BacktrackTrieCtx(context.Background(), g, tr, opts, o)
}

// BacktrackTrieCtx is BacktrackTrie with cooperative cancellation and
// panic isolation, under the same partial-result contract as BacktrackCtx:
// an interrupted pass returns partial counts for every pattern
// simultaneously, each reflecting the vertex blocks completed before the
// abort took effect.
func BacktrackTrieCtx(ctx context.Context, g graph.Adjacency, tr *plan.Trie, opts ExecOptions, o *obs.Observer) ([]uint64, *Stats, error) {
	if tr == nil || len(tr.Plans) == 0 {
		return nil, nil, fmt.Errorf("engine: nil or empty plan trie")
	}
	if err := CtxErr(ctx); err != nil {
		return make([]uint64, len(tr.Plans)), nil, err
	}
	fi := faultinject.Active()
	ctx, fiStop := fi.Context(ctx)
	defer fiStop()
	start := time.Now()
	// Run scope on the context wins over the caller's explicit observer
	// (see BacktrackCtx).
	o = obs.FromContext(ctx, o)
	defer o.StartSpan("mine/trie",
		obs.Int("patterns", len(tr.Plans)),
		obs.Int("shared_levels", tr.SharedLevels)).End()
	liveMatches := o.Counter(MetricMatches)

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
	maxDeg := g.MaxDegree()

	var cursor int64
	var wg sync.WaitGroup
	done := ctx.Done()
	var abort atomic.Bool
	var panicOnce sync.Once
	var panicErr *PanicError
	workers := make([]*trieWorker, threads)
	ranges := make([]*vertexRange, threads)
	info := buildTrieExecInfo(tr)
	for t := 0; t < threads; t++ {
		workers[t] = getTrieWorker(t, g, tr, info, opts.Instrument, maxDeg, opts.NoArena)
		ranges[t] = &workers[t].rng
	}
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(w *trieWorker) {
			defer wg.Done()
			t0 := time.Now()
			defer func() { w.busy = time.Since(t0) }()
			defer func() {
				if r := recover(); r != nil {
					pe := &PanicError{Worker: w.id, Value: r, Stack: debug.Stack()}
					panicOnce.Do(func() { panicErr = pe })
					abort.Store(true)
				}
			}()
			for {
				if abort.Load() {
					return
				}
				select {
				case <-done:
					abort.Store(true)
					return
				default:
				}
				b := int(atomic.AddInt64(&cursor, 1)) - 1
				if b >= numBlocks {
					break
				}
				lo := uint32(b * blockSize)
				hi := uint32((b + 1) * blockSize)
				if hi > uint32(n) {
					hi = uint32(n)
				}
				w.rng.reset(lo, hi, !opts.NoTailSteal)
				// After reset: a stall-injected straggler holds an armed,
				// stealable range, the scenario tail stealing exists for.
				fi.BlockClaimed(w.id)
				before := w.total()
				w.runRoot()
				liveMatches.Add(w.id, w.total()-before)
				fi.MatchesCounted(w.id, w.total()-before)
			}
			for !opts.NoTailSteal {
				if abort.Load() {
					return
				}
				select {
				case <-done:
					abort.Store(true)
					return
				default:
				}
				lo, hi, ok := stealFrom(ranges, w.id)
				if !ok {
					return
				}
				w.steals++
				w.rng.reset(lo, hi, false)
				before := w.total()
				w.runRoot()
				liveMatches.Add(w.id, w.total()-before)
				fi.MatchesCounted(w.id, w.total()-before)
			}
		}(workers[t])
	}
	wg.Wait()

	counts := make([]uint64, len(tr.Plans))
	st := &Stats{
		TriePasses:       1,
		TriePatterns:     uint64(len(tr.Plans)),
		TrieSharedLevels: uint64(tr.SharedLevels),
	}
	for _, w := range workers {
		for i, c := range w.counts {
			counts[i] += c
		}
		w.st.TailSteals += w.steals
		w.st.AddSetops(w.sst)
		for i, l := range w.levels {
			w.st.AddLevel(i, l.Candidates, l.Extended)
		}
		// Stats.Add copies entries by value, so the worker-owned backing
		// array is safe to lend here and reuse on the next execution.
		w.wstats[0] = WorkerStats{Worker: w.id, Time: w.busy, Matches: w.total()}
		w.st.Workers = w.wstats[:]
		st.Add(&w.st)
	}
	tr.Walk(func(node *plan.TrieNode) {
		agg := TrieNodeStats{Node: node.ID, Depth: node.Depth, Patterns: node.Patterns}
		for _, w := range workers {
			agg.Enters += w.nodeEnters[node.ID]
			agg.Candidates += w.nodeCands[node.ID]
			agg.Extended += w.nodeExt[node.ID]
		}
		st.AddTrieNode(agg)
	})
	for _, w := range workers {
		w.release()
	}
	for _, c := range counts {
		st.Matches += c
	}
	st.TotalTime = time.Since(start)
	PublishStats(o, st)
	if panicErr != nil {
		PublishAbort(o, panicErr)
		return counts, st, panicErr
	}
	if err := CtxErr(ctx); err != nil && abort.Load() {
		PublishAbort(o, err)
		return counts, st, err
	}
	return counts, st, nil
}

// trieExecInfo is what buildTrieExecInfo decides about a node from the
// trie's static structure alone (bind-time hoisting, DESIGN §12). A node at
// depth k runs once per vertex its parent binds at depth d = k-1, so its
// Connect/Disconnect lists split into the prefix part (levels below d) and
// the binding part (level d itself, at most one entry). The prefix part
// evaluates to a base set that cannot change while the levels it reads
// stay bound; src says where that set lives:
//
//   - srcRows: nothing to hoist — the prefix is empty or a single pinned
//     row, and the node runs its own lists through Pins (no extra op);
//   - srcRaw: the raw set the ancestor at depth at materialized, valid
//     while that ancestor's execution is on the stack;
//   - srcBuilt: built into the node's own buffer (pconn/pdisc, then last)
//     on first use after level at — its deepest operand — is re-bound.
//
// An execution then costs at most one kernel call (base against the row of
// v_d), and an unlabeled single-branch leaf with an empty binding part
// none: its parent counts it with galloping cursors (trieCursor). check
// lists the bound depths a count-only leaf corrects for (Unconnected).
type trieExecInfo struct {
	src          baseSrc
	at           int
	pconn, pdisc []int // srcBuilt: the base's operands but the last
	last         int   // srcBuilt: the final operand, a disc level if lastDisc
	lastDisc     bool
	bconn, bdisc []int // binding part: the parent's depth in at most one of them
	check        []int

	leaf      bool // every branch is childless
	slot      int  // 1 + index in the parent's collapsed list; 0: executes itself
	loDep     bool // collapsed: the window's low / high end depends on v_d
	hiDep     bool
	collapsed []*plan.TrieNode // children this node counts by cursor
	timeWhole bool             // leaf or parent of one: Instrument clocks the whole execution
}

type baseSrc uint8

const srcRows, srcRaw, srcBuilt baseSrc = 0, 1, 2

// buildTrieExecInfo classifies every node once per pass, so an execution
// only reads flags (classifying per execution is measurably slower on the
// decode-bound tier).
func buildTrieExecInfo(tr *plan.Trie) []trieExecInfo {
	info := make([]trieExecInfo, tr.Nodes)
	var path []*plan.TrieNode // ancestors of the node being classified, root first
	var rec func(n *plan.TrieNode)
	rec = func(n *plan.TrieNode) {
		ei := &info[n.ID]
		ei.check = Unconnected(nil, n.Depth, n.Connect)
		ei.leaf = true
		d := n.Depth - 1
		pconn, bconn := splitAt(n.Connect, d)
		pdisc, bdisc := splitAt(n.Disconnect, d)
		ei.bconn, ei.bdisc = bconn, bdisc
		if len(pconn) > 1 || len(pconn) == 1 && len(pdisc) > 0 {
			ei.src, ei.at = srcBuilt, pconn[len(pconn)-1]
			if nd := len(pdisc); nd > 0 {
				ei.pconn, ei.pdisc, ei.last, ei.lastDisc = pconn, pdisc[:nd-1], pdisc[nd-1], true
				ei.at = max(ei.at, ei.last)
			} else {
				ei.pconn, ei.last = pconn[:len(pconn)-1], ei.at
			}
			for _, a := range path[1:] {
				if slices.Equal(a.Connect, pconn) && slices.Equal(a.Disconnect, pdisc) {
					ei.src, ei.at = srcRaw, a.Depth
				}
			}
		}
		path = append(path, n)
		for _, b := range n.Branches {
			for _, c := range b.Children {
				ei.leaf = false
				rec(c)
				ci := &info[c.ID]
				ei.timeWhole = ei.timeWhole || ci.leaf
				if ci.leaf && len(c.Branches) == 1 && c.Label == pattern.Unlabeled && len(ci.bconn)+len(ci.bdisc) == 0 {
					ei.collapsed = append(ei.collapsed, c)
					ci.slot = len(ei.collapsed)
					ci.loDep = slices.Contains(c.Branches[0].Greater, n.Depth)
					ci.hiDep = slices.Contains(c.Branches[0].Smaller, n.Depth)
				}
			}
		}
		path = path[:len(path)-1]
		ei.timeWhole = ei.timeWhole || ei.leaf
	}
	for _, r := range tr.Roots {
		rec(r)
	}
	return info
}

// splitAt partitions a node's level list into the levels below d and the
// entry for d itself (nil when absent). Lists are bounded by pattern size.
func splitAt(list []int, d int) (below, at []int) {
	for i, j := range list {
		if j == d {
			at = list[i : i+1]
		} else {
			below = append(below, j)
		}
	}
	return below, at
}

// trieWorker interprets the merged trie over one stealable vertex range
// at a time. Besides the per-depth selectivity every executor records, it
// keeps per-trie-node counters (dense node-ID indexed) so the run report
// can show where sharing paid off.
type trieWorker struct {
	id         int
	g          graph.Adjacency // per-worker view (see graph.Adjacency)
	vlabels    []int32         // g.Labels(), read once per candidate
	pins       Pins            // adjacency rows of the bound prefix
	tr         *plan.Trie
	info       []trieExecInfo
	instrument bool

	st     Stats
	sst    setops.Stats
	levels []LevelStats
	busy   time.Duration
	steals uint64
	rng    vertexRange

	counts     []uint64 // per-plan match counts
	nodeEnters []uint64 // per-node: partial embeddings reaching the node
	nodeCands  []uint64 // per-node: candidates its shared computation produced
	nodeExt    []uint64 // per-node: candidates surviving its filters

	match []uint32
	bufA  [][]uint32
	bufB  [][]uint32
	raw   [][]uint32 // per-depth: last raw (pre-window) candidate set, the srcRaw bases
	wins  [][]trieWin

	// Hoisting state. stamp[j] is the tick at which depth j was last bound;
	// a built base is valid while its deepest operand's stamp is the one it
	// was built under (the rule Pins uses for rows, with a counter where Pins
	// compares vertices). tick never rewinds, also not between passes.
	tick  uint64
	stamp []uint64
	bases []trieBase     // per node, srcBuilt only; buffers sized by need
	curs  [][]trieCursor // per depth: cursors of the executing node's collapsed leaves

	// Pooling state, mirroring btWorker: a pooled worker keeps its arena
	// and the scratch carved from it, so reuse at the same shape allocates
	// nothing; wstats backs st.Workers across executions.
	arena  *setops.Arena // nil under NoArena
	d      int           // trie depth the scratch is shaped for
	maxDeg int           // buffer capacity the scratch is shaped for
	wstats [1]WorkerStats
}

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

// trieCursor counts one collapsed leaf over one execution of its parent.
// The parent binds v_d in ascending order and the leaf's window ends are
// max/min of fixed vertices and v_d, so both ends only move right: lo and
// hi are the first positions of base at or above them, advanced by
// galloping (a linear walk is wrong on a hub row with few parent
// candidates); at follows v_d itself, for windows that can contain it.
type trieCursor struct {
	base       []uint32
	lo, hi, at int
	flo, fhi   uint32                      // the window owed to the levels above the parent
	fixed      [pattern.MaxVertices]uint32 // vertices bound at those levels inside base and window
	nfixed     int
	enters, n  uint64
}

func (w *trieWorker) total() uint64 {
	var t uint64
	for _, c := range w.counts {
		t += c
	}
	return t
}

// trieWorkerPool recycles trie workers (and their arenas) across passes,
// mirroring btWorkerPool.
var trieWorkerPool = sync.Pool{New: func() any { return new(trieWorker) }}

// getTrieWorker returns a worker shaped for the trie, pooled unless
// noArena.
func getTrieWorker(id int, g graph.Adjacency, tr *plan.Trie, info []trieExecInfo, instrument bool, maxDeg int, noArena bool) *trieWorker {
	var w *trieWorker
	if noArena {
		w = new(trieWorker)
	} else {
		w = trieWorkerPool.Get().(*trieWorker)
		if w.arena == nil {
			w.arena = setops.GetArena()
		}
	}
	d := tr.MaxDepth
	if w.d != d || w.maxDeg < maxDeg || len(w.counts) != len(tr.Plans) || len(w.nodeEnters) != tr.Nodes {
		w.reshape(d, maxDeg, len(tr.Plans), tr.Nodes)
	}
	w.id = id
	w.g = g.View()
	w.vlabels = g.Labels()
	w.pins.Reset(w.g, d)
	w.pins.Bind(w.match)
	w.tr = tr
	w.info = info
	w.instrument = instrument
	clear(w.levels)
	clear(w.counts)
	clear(w.nodeEnters)
	clear(w.nodeCands)
	clear(w.nodeExt)
	for i := range w.bases {
		w.bases[i].stamp = 0 // buffers stay: they are capacity, not content
	}
	for i := range info {
		if c := info[i].collapsed; len(c) > 0 && len(c) > len(w.curs[c[0].Depth-1]) {
			w.curs[c[0].Depth-1] = make([]trieCursor, len(c))
		}
	}
	lv, wk, tn := w.st.Levels[:0], w.st.Workers[:0], w.st.TrieNodes[:0]
	w.st = Stats{}
	w.st.Levels, w.st.Workers, w.st.TrieNodes = lv, wk, tn
	w.sst = setops.Stats{Scratch: w.arena}
	w.busy = 0
	w.steals = 0
	w.rng.reset(0, 0, false) // neutralize any stale armed range
	return w
}

// alloc returns an empty buffer of capacity n from the worker's arena (the
// heap under NoArena), valid until the next reshape.
func (w *trieWorker) alloc(n int) []uint32 {
	if w.arena != nil {
		return w.arena.Alloc(n)
	}
	return make([]uint32, 0, n)
}

// reshape (re)builds the worker's scratch for a new trie shape, carving
// every uint32 buffer from the arena when one is attached (after a Reset,
// since the previous shape's buffers alias the same slabs).
func (w *trieWorker) reshape(d, maxDeg, plans, nodes int) {
	w.d, w.maxDeg = d, maxDeg
	if w.arena != nil {
		w.arena.Reset()
	}
	w.levels = make([]LevelStats, d)
	w.counts = make([]uint64, plans)
	w.nodeEnters = make([]uint64, nodes)
	w.nodeCands = make([]uint64, nodes)
	w.nodeExt = make([]uint64, nodes)
	w.match = w.alloc(d)[:d]
	w.bufA = make([][]uint32, d)
	w.bufB = make([][]uint32, d)
	w.raw = make([][]uint32, d)
	w.wins = make([][]trieWin, d)
	w.stamp = make([]uint64, d)
	w.bases = make([]trieBase, nodes) // dropping the old buffers with the arena
	w.curs = make([][]trieCursor, d)
	for i := 0; i < d; i++ {
		w.bufA[i] = w.alloc(maxDeg)
		w.bufB[i] = w.alloc(maxDeg)
	}
}

// release returns a pooled worker to the pool, dropping per-pass
// references; NoArena workers are dropped for the GC.
func (w *trieWorker) release() {
	w.pins.Release()
	if w.arena == nil {
		return
	}
	w.g = nil
	w.vlabels = nil
	w.tr = nil
	w.info = nil
	clear(w.raw)
	for _, cs := range w.curs {
		clear(cs) // cursor bases alias rows of the graph
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
// at a time (see steal.go) and pushing each through every root node.
func (w *trieWorker) runRoot() {
	for {
		v, ok := w.rng.next()
		if !ok {
			return
		}
		for _, root := range w.tr.Roots {
			w.levels[0].Candidates++
			w.nodeEnters[root.ID]++
			w.nodeCands[root.ID]++
			if !HasLabel(w.vlabels, v, root.Label) {
				continue
			}
			w.levels[0].Extended++
			w.nodeExt[root.ID]++
			w.bind(0, v)
			// Depth-0 nodes carry no symmetry conditions (no earlier levels).
			for _, br := range root.Branches {
				for _, idx := range br.Leaves {
					w.counts[idx]++
				}
				for _, child := range br.Children {
					w.exec(child, 1, w.instrument)
				}
			}
		}
	}
}

// exec runs one shared node at the given depth: compute the candidate set
// once, then per surviving candidate evaluate each symmetry branch,
// crediting leaf patterns and recursing into children — or, for collapsed
// leaves, advancing their cursors. Nodes whose branches are all childless
// degenerate into pure counting (execLeaf). timed is Instrument minus any
// ancestor already clocking this execution: a node with a leaf child
// charges its whole execution (the subtree below is set building and leaf
// counting) to SetOpTime with one pair of clock reads, any other node only
// its own set building.
func (w *trieWorker) exec(node *plan.TrieNode, depth int, timed bool) {
	ei := &w.info[node.ID]
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	whole := timed && ei.timeWhole
	w.nodeEnters[node.ID]++
	if ei.leaf {
		w.execLeaf(node, ei, depth)
		if whole {
			w.st.SetOpTime += time.Since(t0)
		}
		return
	}
	cands := w.set(node, ei, depth)
	if timed && !whole {
		w.st.SetOpTime += time.Since(t0)
	}
	// Descendants may alias this raw (pre-window) set as their base; it
	// stays valid through the subtree recursion because deeper levels own
	// their own scratch buffers.
	w.raw[depth] = cands

	// Per-branch symmetry windows depend only on the bound prefix:
	// resolve them once per node execution (into per-depth scratch — this
	// runs once per partial embedding, so it must not allocate) and clip
	// the shared candidate set to their union, so candidates no branch can
	// accept are never scanned. With a single branch — plans agreeing on
	// the level's conditions — this is exactly the per-pattern executor's
	// symmetry pruning; diverging branches keep whatever pruning their
	// windows' union allows.
	wins := w.windows(node, depth)
	cands = clipToUnion(cands, wins)

	curs := w.curs[depth]
	for i := range ei.collapsed {
		curs[i].enters, curs[i].n = 0, 0 // the rest is set on the first candidate
	}

	w.levels[depth].Candidates += uint64(len(cands))
	w.nodeCands[node.ID] += uint64(len(cands))
	var ext uint64
	info := w.info
	for _, v := range cands {
		if !HasLabel(w.vlabels, v, node.Label) {
			continue
		}
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
		for bi, br := range node.Branches {
			if v < wins[bi].lo || v >= wins[bi].hi {
				continue
			}
			for _, idx := range br.Leaves {
				w.counts[idx]++
			}
			for _, child := range br.Children {
				if ci := &info[child.ID]; ci.slot > 0 {
					w.advance(&curs[ci.slot-1], child, ci, v)
				} else {
					w.exec(child, depth+1, timed && !whole)
				}
			}
		}
	}
	w.levels[depth].Extended += ext
	w.nodeExt[node.ID] += ext
	// Collapsed leaves are credited in bulk, with exactly the totals their
	// per-candidate executions would have produced.
	for i, leaf := range ei.collapsed {
		if curs[i].enters > 0 {
			w.nodeEnters[leaf.ID] += curs[i].enters
			w.credit(leaf, depth+1, curs[i].n)
		}
	}
	if whole {
		w.st.SetOpTime += time.Since(t0)
	}
}

// credit books n extensions of a single-branch count-only leaf: the
// candidate set is never materialized, so the extension count stands in
// for both selectivity fields.
func (w *trieWorker) credit(leaf *plan.TrieNode, depth int, n uint64) {
	for _, idx := range leaf.Branches[0].Leaves {
		w.counts[idx] += n
	}
	w.levels[depth].Candidates += n
	w.levels[depth].Extended += n
	w.nodeCands[leaf.ID] += n
	w.nodeExt[leaf.ID] += n
}

// advance counts a collapsed leaf for the vertex v its parent just bound:
// the slice of the base inside the leaf's window, minus the already-bound
// vertices in it. What the levels above the parent fix — the base, their
// share of the window, their vertices inside both — is resolved on the
// first candidate to get here; only an end that depends on v moves. Probes
// are charged to Elems as the galloping kernels charge theirs; no Op.
func (w *trieWorker) advance(c *trieCursor, leaf *plan.TrieNode, ei *trieExecInfo, v uint32) {
	d := leaf.Depth - 1
	if c.enters == 0 {
		c.base = w.base(leaf, ei)
		c.flo, c.fhi = trieWindow(leaf.Branches[0], w.match, d)
		c.lo = setops.GallopGE(c.base, 0, c.flo, &w.sst.Elems)
		c.hi, c.at, c.nfixed = 0, 0, 0
		if !ei.hiDep {
			c.hi = setops.GallopGE(c.base, c.lo, c.fhi, &w.sst.Elems)
		}
		for _, a := range ei.check {
			if u := w.match[a]; a != d && u >= c.flo && u < c.fhi && setops.Contains(c.base, u) {
				c.fixed[c.nfixed] = u
				c.nfixed++
			}
		}
	}
	c.enters++
	lo, hi := c.flo, c.fhi
	if ei.loDep {
		lo = max(lo, v+1)
		c.lo = setops.GallopGE(c.base, c.lo, lo, &w.sst.Elems)
	}
	if ei.hiDep {
		hi = min(hi, v)
		c.hi = setops.GallopGE(c.base, c.hi, hi, &w.sst.Elems)
	}
	if lo >= hi {
		return
	}
	n := c.hi - c.lo
	for _, u := range c.fixed[:c.nfixed] {
		if u >= lo && u < hi {
			n--
		}
	}
	if v >= lo && v < hi { // neither end depends on v: it may sit in the base itself
		c.at = setops.GallopGE(c.base, c.at, v, &w.sst.Elems)
		if c.at < len(c.base) && c.base[c.at] == v {
			n--
		}
	}
	c.n += uint64(n)
}

// execLeaf runs a node whose branches are all childless. Nothing
// downstream needs the bindings, so counting goes through the count-only
// kernels: a single branch never materializes the candidate set, while
// sibling branches materialize the shared set once and count each
// branch's window arithmetically.
func (w *trieWorker) execLeaf(node *plan.TrieNode, ei *trieExecInfo, depth int) {
	if len(node.Branches) == 1 {
		lo, hi := trieWindow(node.Branches[0], w.match, -1)
		if f, ok := LevelFilter(w.g, lo, hi, node.Label); ok {
			w.credit(node, depth, w.countLeaf(node, ei, depth, f))
		}
		return
	}
	wins := w.windows(node, depth)
	// Clip the shared set to the union of the branch windows before the
	// per-branch count-only scans (same pruning as exec; membership within
	// any branch window is preserved, so the bound-vertex subtraction
	// below still sees every vertex its filter can pass).
	cands := clipToUnion(w.set(node, ei, depth), wins)
	w.levels[depth].Candidates += uint64(len(cands))
	w.nodeCands[node.ID] += uint64(len(cands))
	for bi, br := range node.Branches {
		f, ok := LevelFilter(w.g, wins[bi].lo, wins[bi].hi, node.Label)
		if !ok {
			continue
		}
		// The shared set is sorted, so each branch's window count is two
		// binary searches; only labeled levels still scan (and only the
		// window's slice of the set).
		sub := setops.Clip(cands, f.Lo, f.Hi)
		n := uint64(len(sub))
		if f.Labels != nil {
			n = setops.CountF(sub, f, &w.sst)
		}
		for _, j := range ei.check {
			if u := w.match[j]; f.Pass(u) && setops.Contains(sub, u) {
				n--
			}
		}
		for _, idx := range br.Leaves {
			w.counts[idx] += n
		}
		// Sibling branches count overlapping windows of the shared set, so
		// Extended measures work done, not distinct bindings.
		w.levels[depth].Extended += n
		w.nodeExt[node.ID] += n
	}
}

// countLeaf counts a single-branch leaf's extensions passing f without
// materializing them. With a hoisted base that is one count-only kernel
// call against the row of v_d (none when the binding part is empty), minus
// the bound vertices it counted: those that pass the filter, sit in the
// base and meet the binding part — binary searches in sets already held.
func (w *trieWorker) countLeaf(node *plan.TrieNode, ei *trieExecInfo, depth int, f setops.Filter) (n uint64) {
	if ei.src == srcRows {
		n, w.bufA[depth], w.bufB[depth] = w.pins.CountExtensions(node.Connect, node.Disconnect, ei.check, f, w.bufA[depth], w.bufB[depth], &w.sst)
		return n
	}
	base := w.base(node, ei)
	switch {
	case len(ei.bconn) > 0:
		n = w.pins.IntersectCountF(base, depth-1, f, &w.sst)
	case len(ei.bdisc) > 0:
		n = w.pins.DifferenceCountF(base, depth-1, f, &w.sst)
	default:
		n = setops.CountF(base, f, &w.sst)
	}
	for _, a := range ei.check {
		if u := w.match[a]; f.Pass(u) && setops.Contains(base, u) && w.pins.qualifies(a, ei.bconn, ei.bdisc) {
			n--
		}
	}
	return n
}

// set materializes a node's raw (pre-window, pre-label) candidate set: its
// base narrowed by the binding part, or its own lists through Pins when
// nothing is hoisted. The result is worker scratch, a base or a pinned row
// — each valid through the node's subtree recursion, during which the
// depths above stay bound and deeper levels use their own scratch.
func (w *trieWorker) set(node *plan.TrieNode, ei *trieExecInfo, depth int) (cur []uint32) {
	if ei.src == srcRows {
		cur, w.bufA[depth], w.bufB[depth] = w.pins.Candidates(node.Connect, node.Disconnect, w.bufA[depth], w.bufB[depth], &w.sst)
		return cur
	}
	cur = w.base(node, ei)
	if len(ei.bconn) > 0 {
		cur = w.pins.IntersectNeighbors(w.bufA[depth], cur, depth-1, &w.sst)
	} else if len(ei.bdisc) > 0 {
		cur = w.pins.DifferenceNeighbors(w.bufA[depth], cur, depth-1, &w.sst)
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
		return w.pins.Row(node.Connect[0])
	case srcRaw:
		return w.raw[ei.at]
	}
	b := &w.bases[node.ID]
	if b.stamp != w.stamp[ei.at] {
		b.stamp = w.stamp[ei.at]
		k := node.Depth
		var cur []uint32
		cur, w.bufA[k], w.bufB[k] = w.pins.Candidates(ei.pconn, ei.pdisc, w.bufA[k], w.bufB[k], &w.sst)
		if cap(b.set) < len(cur) {
			b.set = w.alloc(max(len(cur), 2*cap(b.set)))
		}
		if ei.lastDisc {
			b.set = w.pins.DifferenceNeighbors(b.set, cur, ei.last, &w.sst)
		} else {
			b.set = w.pins.IntersectNeighbors(b.set, cur, ei.last, &w.sst)
		}
	}
	return b.set
}

// windows resolves the node's branch windows against the bound prefix, into
// per-depth scratch.
func (w *trieWorker) windows(node *plan.TrieNode, depth int) []trieWin {
	wins := w.wins[depth][:0]
	for _, br := range node.Branches {
		lo, hi := trieWindow(br, w.match, -1)
		wins = append(wins, trieWin{lo, hi})
	}
	w.wins[depth] = wins
	return wins
}

// clipToUnion narrows a sorted candidate set to the union of the branch
// windows.
func clipToUnion(cands []uint32, wins []trieWin) []uint32 {
	ulo, uhi := ^uint32(0), uint32(0)
	for _, win := range wins {
		ulo, uhi = min(ulo, win.lo), max(uhi, win.hi)
	}
	if ulo > 0 || uhi < ^uint32(0) {
		cands = setops.Clip(cands, ulo, uhi)
	}
	return cands
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
