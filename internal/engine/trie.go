package engine

import (
	"context"
	"fmt"
	"runtime/debug"
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

// trieExecInfo is per-node execution metadata derived from the trie's
// static structure: whether the node's candidate set can be computed
// incrementally from its parent's materialized raw set. When the parent's
// Connect and Disconnect lists are subsets of the child's, the child's
// set is the parent's raw set (pre-window, pre-label — exactly the
// intersection the parent materialized) narrowed by the extra
// constraints only. On the dense alternative sets morphing produces this
// collapses a leaf's whole intersection chain into one count-only kernel
// call against an already-small set — the dominant cost of a pass.
//
// check lists, for every node, the bound depths a count-only leaf corrects
// for (Unconnected): a depth in the node's Connect can never be counted,
// which is resolved here once rather than probed on every leaf execution.
type trieExecInfo struct {
	reuse     bool
	extraConn []int
	extraDisc []int
	check     []int
}

// buildTrieExecInfo walks the trie once, marking every node whose
// constraint lists extend its parent's. Roots and children of
// constraint-free parents (no materialized set to extend) stay on the
// from-scratch path.
func buildTrieExecInfo(tr *plan.Trie) []trieExecInfo {
	info := make([]trieExecInfo, tr.Nodes)
	var rec func(n *plan.TrieNode)
	rec = func(n *plan.TrieNode) {
		info[n.ID].check = Unconnected(nil, n.Depth, n.Connect)
		for _, b := range n.Branches {
			for _, c := range b.Children {
				if len(n.Connect) > 0 {
					if okC, exC := subsetExtra(n.Connect, c.Connect); okC {
						if okD, exD := subsetExtra(n.Disconnect, c.Disconnect); okD {
							info[c.ID] = trieExecInfo{reuse: true, extraConn: exC, extraDisc: exD}
						}
					}
				}
				rec(c)
			}
		}
	}
	for _, r := range tr.Roots {
		rec(r)
	}
	return info
}

// subsetExtra reports whether every element of parent appears in child,
// and if so returns the child elements not in parent. The lists are tiny
// (bounded by pattern size), so quadratic scans beat any indexing.
func subsetExtra(parent, child []int) (bool, []int) {
	containsInt := func(s []int, x int) bool {
		for _, v := range s {
			if v == x {
				return true
			}
		}
		return false
	}
	for _, j := range parent {
		if !containsInt(child, j) {
			return false, nil
		}
	}
	var extra []int
	for _, j := range child {
		if !containsInt(parent, j) {
			extra = append(extra, j)
		}
	}
	return true, extra
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
	raw   [][]uint32 // per-depth: last raw (pre-window) candidate set, for child reuse
	wins  [][]trieWin

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
	lv, wk, tn := w.st.Levels[:0], w.st.Workers[:0], w.st.TrieNodes[:0]
	w.st = Stats{}
	w.st.Levels, w.st.Workers, w.st.TrieNodes = lv, wk, tn
	w.sst = setops.Stats{Scratch: w.arena}
	w.busy = 0
	w.steals = 0
	w.rng.reset(0, 0, false) // neutralize any stale armed range
	return w
}

// reshape (re)builds the worker's scratch for a new trie shape, carving
// every uint32 buffer from the arena when one is attached (after a Reset,
// since the previous shape's buffers alias the same slabs).
func (w *trieWorker) reshape(d, maxDeg, plans, nodes int) {
	w.d, w.maxDeg = d, maxDeg
	if w.arena != nil {
		w.arena.Reset()
	}
	alloc := func(n int) []uint32 {
		if w.arena != nil {
			return w.arena.Alloc(n)
		}
		return make([]uint32, 0, n)
	}
	w.levels = make([]LevelStats, d)
	w.counts = make([]uint64, plans)
	w.nodeEnters = make([]uint64, nodes)
	w.nodeCands = make([]uint64, nodes)
	w.nodeExt = make([]uint64, nodes)
	w.match = alloc(d)[:d]
	w.bufA = make([][]uint32, d)
	w.bufB = make([][]uint32, d)
	w.raw = make([][]uint32, d)
	w.wins = make([][]trieWin, d)
	for i := 0; i < d; i++ {
		w.bufA[i] = alloc(maxDeg)
		w.bufB[i] = alloc(maxDeg)
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
	trieWorkerPool.Put(w)
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
			w.match[0] = v
			// Depth-0 nodes carry no symmetry conditions (no earlier levels).
			for _, br := range root.Branches {
				for _, idx := range br.Leaves {
					w.counts[idx]++
				}
				for _, child := range br.Children {
					w.exec(child, 1)
				}
			}
		}
	}
}

// exec runs one shared node at the given depth: compute the candidate set
// once, then per surviving candidate evaluate each symmetry branch,
// crediting leaf patterns and recursing into children. Nodes whose
// branches are all childless degenerate into pure counting.
func (w *trieWorker) exec(node *plan.TrieNode, depth int) {
	leaf := true
	for _, br := range node.Branches {
		if len(br.Children) > 0 {
			leaf = false
			break
		}
	}
	if leaf {
		w.execLeaf(node, depth)
		return
	}
	w.nodeEnters[node.ID]++
	cands := w.candidates(node, depth)
	// Children may derive their sets from this raw (pre-window) set; it
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
	wins := w.wins[depth][:0]
	ulo, uhi := ^uint32(0), uint32(0)
	for _, br := range node.Branches {
		lo, hi := trieWindow(br, w.match)
		wins = append(wins, trieWin{lo, hi})
		if lo < ulo {
			ulo = lo
		}
		if hi > uhi {
			uhi = hi
		}
	}
	w.wins[depth] = wins
	if ulo > 0 || uhi < ^uint32(0) {
		cands = setops.Clip(cands, ulo, uhi)
	}

	w.levels[depth].Candidates += uint64(len(cands))
	w.nodeCands[node.ID] += uint64(len(cands))
	var ext uint64
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
		w.match[depth] = v
		for bi, br := range node.Branches {
			if v < wins[bi].lo || v >= wins[bi].hi {
				continue
			}
			for _, idx := range br.Leaves {
				w.counts[idx]++
			}
			for _, child := range br.Children {
				w.exec(child, depth+1)
			}
		}
	}
	w.levels[depth].Extended += ext
	w.nodeExt[node.ID] += ext
}

// execLeaf runs a node whose branches are all childless. Nothing
// downstream needs the bindings, so counting goes through the count-only
// kernels: a single branch never materializes the candidate set
// (CountExtensions), while sibling branches materialize the shared set
// once and count each branch's window arithmetically.
func (w *trieWorker) execLeaf(node *plan.TrieNode, depth int) {
	w.nodeEnters[node.ID]++
	if len(node.Branches) == 1 {
		br := node.Branches[0]
		var t0 time.Time
		if w.instrument {
			t0 = time.Now()
		}
		lo, hi := trieWindow(br, w.match)
		if f, ok := LevelFilter(w.g, lo, hi, node.Label); ok {
			var n uint64
			if ei := &w.info[node.ID]; ei.reuse {
				n = w.countFromParent(ei, depth, f)
			} else {
				n, w.bufA[depth], w.bufB[depth] = w.pins.CountExtensions(node.Connect, node.Disconnect, ei.check, f, w.bufA[depth], w.bufB[depth], &w.sst)
			}
			for _, idx := range br.Leaves {
				w.counts[idx] += n
			}
			// Count-only leaf: the candidate set is never materialized, so
			// the extension count stands in for both fields.
			w.levels[depth].Candidates += n
			w.levels[depth].Extended += n
			w.nodeCands[node.ID] += n
			w.nodeExt[node.ID] += n
		}
		if w.instrument {
			w.st.SetOpTime += time.Since(t0)
		}
		return
	}
	cands := w.candidates(node, depth)
	// Clip the shared set to the union of the branch windows before the
	// per-branch count-only scans (same pruning as exec; membership within
	// any branch window is preserved, so the bound-vertex subtraction
	// below still sees every vertex its filter can pass).
	ulo, uhi := ^uint32(0), uint32(0)
	for _, br := range node.Branches {
		lo, hi := trieWindow(br, w.match)
		if lo < ulo {
			ulo = lo
		}
		if hi > uhi {
			uhi = hi
		}
	}
	if ulo > 0 || uhi < ^uint32(0) {
		cands = setops.Clip(cands, ulo, uhi)
	}
	w.levels[depth].Candidates += uint64(len(cands))
	w.nodeCands[node.ID] += uint64(len(cands))
	var t0 time.Time
	if w.instrument {
		t0 = time.Now()
	}
	for _, br := range node.Branches {
		lo, hi := trieWindow(br, w.match)
		f, ok := LevelFilter(w.g, lo, hi, node.Label)
		if !ok {
			continue
		}
		// The shared set is sorted, so each branch's window count is two
		// binary searches; only labeled levels still scan (and only the
		// window's slice of the set).
		sub := setops.Clip(cands, lo, hi)
		n := uint64(len(sub))
		if f.Labels != nil {
			n = setops.CountF(sub, f, &w.sst)
		}
		for _, j := range w.info[node.ID].check {
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
	if w.instrument {
		w.st.SetOpTime += time.Since(t0)
	}
}

// countFromParent counts a reuse leaf's extensions from the parent's raw
// candidate set: materialize every extra constraint but the last, run the
// last count-only with the window and label fused in (mirroring
// CountExtensions), then subtract already-bound vertices — a bound vertex
// was counted iff it passes the filter, sits in the parent set, and
// satisfies the extra constraints, all binary searches in rows the worker
// already holds.
func (w *trieWorker) countFromParent(ei *trieExecInfo, depth int, f setops.Filter) uint64 {
	base := w.raw[depth-1]
	var n uint64
	nExtra := len(ei.extraConn) + len(ei.extraDisc)
	if nExtra == 0 {
		n = setops.CountF(base, f, &w.sst)
	} else {
		cur := base
		out, spare := w.bufA[depth], w.bufB[depth]
		for i, j := range ei.extraConn {
			if len(ei.extraDisc) == 0 && i == len(ei.extraConn)-1 {
				n = w.pins.IntersectCountF(cur, j, f, &w.sst)
				break
			}
			cur = w.pins.IntersectNeighbors(out, cur, j, &w.sst)
			out, spare = spare, cur
		}
		for i, j := range ei.extraDisc {
			if i == len(ei.extraDisc)-1 {
				n = w.pins.DifferenceCountF(cur, j, f, &w.sst)
				break
			}
			cur = w.pins.DifferenceNeighbors(out, cur, j, &w.sst)
			out, spare = spare, cur
		}
		w.bufA[depth], w.bufB[depth] = out, spare
	}
	for _, a := range ei.check {
		if u := w.match[a]; f.Pass(u) && setops.Contains(base, u) && w.pins.qualifies(a, ei.extraConn, ei.extraDisc) {
			n--
		}
	}
	return n
}

// trieWindow resolves a branch's symmetry conditions against the bound
// prefix as a half-open window [lo, hi).
func trieWindow(br *plan.TrieBranch, match []uint32) (lo, hi uint32) {
	lo, hi = 0, ^uint32(0)
	for _, j := range br.Greater {
		if match[j]+1 > lo {
			lo = match[j] + 1
		}
	}
	for _, j := range br.Smaller {
		if match[j] < hi {
			hi = match[j]
		}
	}
	return lo, hi
}

// candidates computes a node's shared candidate set from its Connect and
// Disconnect levels through the adaptive kernels. Nodes whose constraints
// extend their parent's narrow the parent's raw set by the extra
// constraints only, instead of rebuilding the intersection chain from
// adjacency lists. The returned slice is worker scratch, the parent's raw
// set or a pinned row — each valid through the node's subtree recursion,
// during which the depths above stay bound and deeper levels use their
// own scratch.
func (w *trieWorker) candidates(node *plan.TrieNode, depth int) []uint32 {
	var t0 time.Time
	if w.instrument {
		t0 = time.Now()
	}
	var cur []uint32
	if ei := &w.info[node.ID]; ei.reuse {
		cur = w.raw[depth-1]
		out, spare := w.bufA[depth], w.bufB[depth]
		for _, j := range ei.extraConn {
			cur = w.pins.IntersectNeighbors(out, cur, j, &w.sst)
			out, spare = spare, cur
		}
		for _, j := range ei.extraDisc {
			cur = w.pins.DifferenceNeighbors(out, cur, j, &w.sst)
			out, spare = spare, cur
		}
		w.bufA[depth], w.bufB[depth] = out, spare
	} else {
		cur, w.bufA[depth], w.bufB[depth] = w.pins.Candidates(node.Connect, node.Disconnect, w.bufA[depth], w.bufB[depth], &w.sst)
	}
	if w.instrument {
		w.st.SetOpTime += time.Since(t0)
	}
	return cur
}
