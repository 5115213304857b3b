// Package autozero models the paper's in-house AutoZero system: the
// compilation-based scheduling of AutoMine [40] combined with GraphZero's
// symmetry-breaking restrictions [39], augmented (as the paper does) with
// schedule merging — the nested-loop schedules of multiple input patterns
// are merged on common prefixes so overlapping loops execute once, while
// conflicting restrictions are applied separately to avoid under-counting.
// Instead of generating and compiling C++ like the original, schedules are
// compact structs executed by an interpreter: the schedule trie.
//
// Merging is what makes AutoZero the best case for Subgraph Morphing
// (§7.1): the extra superpatterns that morphing introduces share loop
// prefixes with the query patterns, so they come almost for free.
package autozero

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"morphing/internal/engine"
	"morphing/internal/faultinject"
	"morphing/internal/graph"
	"morphing/internal/obs"
	"morphing/internal/pattern"
	"morphing/internal/plan"
	"morphing/internal/setops"
)

// Engine is an AutoZero-model matching engine.
type Engine struct {
	// Threads is the worker count (0 = GOMAXPROCS).
	Threads int
	// Instrument enables phase timings.
	Instrument bool
	// Obs receives metrics and mine spans (nil = obs.Default()).
	Obs *obs.Observer
}

var (
	_ engine.CtxEngine = (*Engine)(nil)
	_ engine.Planner   = (*Engine)(nil)
)

// PlanPattern implements engine.Planner: AutoZero schedules with its own
// highest-degree-connected order — the same plans its merged trie
// interprets, so the generic trie path preserves this engine's matching
// orders.
func (e *Engine) PlanPattern(_ graph.Adjacency, p *pattern.Pattern) (*plan.Plan, error) {
	pl, err := plan.BuildWithOrder(p, order(p))
	if err != nil {
		return nil, fmt.Errorf("autozero: %w", err)
	}
	return pl, nil
}

// ExecConfig implements engine.Planner.
func (e *Engine) ExecConfig() (engine.ExecOptions, *obs.Observer) {
	return engine.ExecOptions{Threads: e.Threads, Instrument: e.Instrument}, e.Obs
}

// New returns an engine with the given worker count.
func New(threads int) *Engine { return &Engine{Threads: threads} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "AutoZero" }

// SupportsInduced implements engine.Engine: schedules express anti-edges
// as set differences, so both semantics are supported.
func (e *Engine) SupportsInduced(pattern.Induced) bool { return true }

// order is AutoZero's scheduling heuristic: always extend with the
// highest-degree connected vertex, ignoring how many bound vertices it
// connects back to. It intentionally differs from the Peregrine model's
// heuristic so the two systems exhibit the distinct relative pattern
// performance of observation 4 (§3.4).
func order(p *pattern.Pattern) []int {
	n := p.N()
	out := make([]int, 0, n)
	placed := make([]bool, n)
	start := 0
	for v := 1; v < n; v++ {
		if p.Degree(v) > p.Degree(start) {
			start = v
		}
	}
	out = append(out, start)
	placed[start] = true
	for len(out) < n {
		best, bestDeg := -1, -1
		for v := 0; v < n; v++ {
			if placed[v] {
				continue
			}
			connected := false
			for _, u := range out {
				if p.HasEdge(v, u) {
					connected = true
					break
				}
			}
			if connected && p.Degree(v) > bestDeg {
				best, bestDeg = v, p.Degree(v)
			}
		}
		if best == -1 {
			break // disconnected; caught by plan validation
		}
		out = append(out, best)
		placed[best] = true
	}
	return out
}

// Count counts a single pattern (a one-pattern merged schedule).
func (e *Engine) Count(g graph.Adjacency, p *pattern.Pattern) (uint64, *engine.Stats, error) {
	return e.CountCtx(context.Background(), g, p)
}

// CountCtx implements engine.CtxEngine.
func (e *Engine) CountCtx(ctx context.Context, g graph.Adjacency, p *pattern.Pattern) (uint64, *engine.Stats, error) {
	counts, st, err := e.CountAllCtx(ctx, g, []*pattern.Pattern{p})
	if len(counts) == 0 {
		return 0, st, err
	}
	return counts[0], st, err
}

// Match streams matches of one pattern. Enumeration schedules are not
// merged (AutoMine streams pattern by pattern); execution reuses the
// generic backtracking executor over AutoZero's schedule order.
func (e *Engine) Match(g graph.Adjacency, p *pattern.Pattern, visit engine.Visitor) (*engine.Stats, error) {
	return e.MatchCtx(context.Background(), g, p, visit)
}

// MatchCtx implements engine.CtxEngine: Match with cooperative
// cancellation and visitor-panic containment.
func (e *Engine) MatchCtx(ctx context.Context, g graph.Adjacency, p *pattern.Pattern, visit engine.Visitor) (*engine.Stats, error) {
	pl, err := plan.BuildWithOrder(p, order(p))
	if err != nil {
		return nil, fmt.Errorf("autozero: %w", err)
	}
	defer obs.FromContext(ctx, e.Obs).StartSpan("mine/"+p.String(), obs.Str("engine", e.Name())).End()
	_, st, err := engine.BacktrackCtx(ctx, g, pl, visit, engine.ExecOptions{Threads: e.Threads, Instrument: e.Instrument}, e.Obs)
	return st, err
}

// CountAll compiles all patterns into one merged schedule trie and
// executes it in a single pass: schedules sharing loop prefixes share
// candidate computation, and conflicting symmetry restrictions stay on
// separate branches so nothing is under-counted.
func (e *Engine) CountAll(g graph.Adjacency, ps []*pattern.Pattern) ([]uint64, *engine.Stats, error) {
	return e.CountAllCtx(context.Background(), g, ps)
}

// CountAllCtx implements engine.CtxEngine. Because the merged trie
// advances all patterns in one pass, an interrupted run returns partial
// counts for every pattern simultaneously — each reflecting the vertex
// blocks completed before the abort took effect.
func (e *Engine) CountAllCtx(ctx context.Context, g graph.Adjacency, ps []*pattern.Pattern) ([]uint64, *engine.Stats, error) {
	start := time.Now()
	if len(ps) == 0 {
		return nil, &engine.Stats{}, nil
	}
	if err := engine.CtxErr(ctx); err != nil {
		return make([]uint64, len(ps)), nil, err
	}
	fi := faultinject.Active()
	ctx, fiStop := fi.Context(ctx)
	defer fiStop()
	// Run scope on the context wins over the engine's observer (see
	// engine.BacktrackCtx).
	o := obs.FromContext(ctx, e.Obs)
	defer o.StartSpan("mine/merged", obs.Str("engine", e.Name()), obs.Int("patterns", len(ps))).End()
	liveMatches := o.Counter(engine.MetricMatches)
	var tr trie
	maxDepth := 0
	for idx, p := range ps {
		pl, err := plan.BuildWithOrder(p, order(p))
		if err != nil {
			return nil, nil, fmt.Errorf("autozero: pattern %d: %w", idx, err)
		}
		tr.insert(pl, idx)
		if p.N() > maxDepth {
			maxDepth = p.N()
		}
	}

	threads := engine.ExecOptions{Threads: e.Threads}.ThreadCount()
	n := g.NumVertices()
	blockSize := 256
	if n/threads < blockSize*8 {
		blockSize = n/(threads*8) + 1
	}
	numBlocks := (n + blockSize - 1) / blockSize
	maxDeg := g.MaxDegree()

	var cursor int64
	var wg sync.WaitGroup
	done := ctx.Done()
	var abort atomic.Bool // set by cancellation or a worker panic
	var panicOnce sync.Once
	var panicErr *engine.PanicError
	workers := make([]*azWorker, threads)
	for t := 0; t < threads; t++ {
		workers[t] = newAZWorker(g, len(ps), maxDepth, maxDeg, e.Instrument)
	}
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(id int, w *azWorker) {
			defer wg.Done()
			// Busy time for the skew histograms; registered before the
			// recover defer so panicking workers still report theirs.
			t0 := time.Now()
			defer func() { w.busy = time.Since(t0) }()
			// Contain panics from trie execution so a bad schedule (or an
			// injected fault) degrades into one clean error, not a crash.
			defer func() {
				if r := recover(); r != nil {
					pe := &engine.PanicError{Worker: id, Value: r, Stack: debug.Stack()}
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
					return
				}
				fi.BlockClaimed(id)
				lo := uint32(b * blockSize)
				hi := uint32((b + 1) * blockSize)
				if hi > uint32(n) {
					hi = uint32(n)
				}
				before := w.total()
				w.runRoot(&tr, lo, hi)
				liveMatches.Add(id, w.total()-before)
			}
		}(t, workers[t])
	}
	wg.Wait()

	counts := make([]uint64, len(ps))
	st := &engine.Stats{}
	for t, w := range workers {
		for i, c := range w.counts {
			counts[i] += c
		}
		w.st.AddSetops(w.sst)
		for i, l := range w.levels {
			w.st.AddLevel(i, l.Candidates, l.Extended)
		}
		w.st.Workers = []engine.WorkerStats{{Worker: t, Time: w.busy, Matches: w.total()}}
		st.Add(&w.st)
		w.release()
	}
	for _, c := range counts {
		st.Matches += c
	}
	st.TotalTime = time.Since(start)
	engine.PublishStats(o, st)
	if panicErr != nil {
		engine.PublishAbort(o, panicErr)
		return counts, st, panicErr
	}
	if err := engine.CtxErr(ctx); err != nil && abort.Load() {
		engine.PublishAbort(o, err)
		return counts, st, err
	}
	return counts, st, nil
}

// loopSig captures what determines a merged loop's candidate set given the
// bound prefix: intersected levels, subtracted levels and label filter.
// Symmetry restrictions are deliberately excluded so that loops merge even
// when restrictions conflict.
func loopSig(pl *plan.Plan, i int) string {
	return fmt.Sprint(pl.Connect[i], pl.Disconnect[i], pl.Pattern.Label(pl.Order[i]))
}

func restrictSig(pl *plan.Plan, i int) string {
	return fmt.Sprint(pl.Greater[i], pl.Smaller[i])
}

// trie is the merged schedule: a forest of depth-0 loops.
type trie struct {
	roots []*trieNode
}

// trieNode is one merged loop: a shared candidate computation with one or
// more restriction branches hanging off it.
type trieNode struct {
	sig        string
	connect    []int
	disconnect []int
	label      int32
	check      []int // bound depths a count-only leaf corrects for
	branches   []*trieBranch
}

// trieBranch applies one restriction set to the enclosing loop's
// candidates. Patterns agreeing on the loop but disagreeing on
// restrictions live on sibling branches.
type trieBranch struct {
	sig      string
	greater  []int
	smaller  []int
	enders   []int // indices of patterns whose last loop is this branch
	children []*trieNode
}

func (t *trie) insert(pl *plan.Plan, idx int) {
	nodes := &t.roots
	var br *trieBranch
	for i := 0; i < pl.Pattern.N(); i++ {
		ls := loopSig(pl, i)
		var node *trieNode
		for _, c := range *nodes {
			if c.sig == ls {
				node = c
				break
			}
		}
		if node == nil {
			node = &trieNode{
				sig:        ls,
				connect:    pl.Connect[i],
				disconnect: pl.Disconnect[i],
				label:      pl.Pattern.Label(pl.Order[i]),
				check:      engine.Unconnected(nil, i, pl.Connect[i]),
			}
			*nodes = append(*nodes, node)
		}
		rs := restrictSig(pl, i)
		br = nil
		for _, b := range node.branches {
			if b.sig == rs {
				br = b
				break
			}
		}
		if br == nil {
			br = &trieBranch{sig: rs, greater: pl.Greater[i], smaller: pl.Smaller[i]}
			node.branches = append(node.branches, br)
		}
		nodes = &br.children
	}
	br.enders = append(br.enders, idx)
	sort.Ints(br.enders)
}

type azWorker struct {
	g          graph.Adjacency // per-worker view (see graph.Adjacency)
	vlabels    []int32         // g.Labels(), read once per candidate
	pins       engine.Pins     // adjacency rows of the bound prefix
	instrument bool
	st         engine.Stats
	sst        setops.Stats
	levels     []engine.LevelStats // per-depth selectivity, folded at merge
	busy       time.Duration       // wall-clock inside the work loop
	counts     []uint64
	match      []uint32
	bufA       [][]uint32
	bufB       [][]uint32

	// arena backs the uint32 scratch above and the setops tile kernels;
	// drawn from the package pool per execution and released at merge, so
	// slabs reach a steady state across CountAll calls.
	arena *setops.Arena
	// wins is per-depth restriction-window scratch: exec runs once per
	// partial embedding, so resolving branch windows must not allocate.
	wins [][]azWindow
}

// azWindow is one branch's resolved restriction window at one depth.
type azWindow struct {
	lower, upper       uint32
	hasLower, hasUpper bool
}

// total sums the worker's per-pattern counts (the executor flushes the
// delta to the live matches counter after each block).
func (w *azWorker) total() uint64 {
	var t uint64
	for _, c := range w.counts {
		t += c
	}
	return t
}

func newAZWorker(g graph.Adjacency, patterns, maxDepth, maxDeg int, instrument bool) *azWorker {
	ar := setops.GetArena()
	w := &azWorker{
		g:          g.View(),
		vlabels:    g.Labels(),
		instrument: instrument,
		levels:     make([]engine.LevelStats, maxDepth),
		counts:     make([]uint64, patterns),
		match:      ar.AllocN(maxDepth),
		bufA:       make([][]uint32, maxDepth),
		bufB:       make([][]uint32, maxDepth),
		arena:      ar,
		wins:       make([][]azWindow, maxDepth),
	}
	w.sst.Scratch = ar
	w.pins.Reset(w.g, maxDepth)
	w.pins.Bind(w.match)
	for i := 0; i < maxDepth; i++ {
		w.bufA[i] = ar.Alloc(maxDeg)
		w.bufB[i] = ar.Alloc(maxDeg)
	}
	return w
}

// release returns the worker's arena to the package pool; the worker must
// not be used afterwards.
func (w *azWorker) release() {
	w.pins.Release()
	w.sst.Scratch = nil
	w.arena.Release()
	w.arena = nil
}

func (w *azWorker) runRoot(tr *trie, lo, hi uint32) {
	for _, root := range tr.roots {
		for v := lo; v < hi; v++ {
			w.levels[0].Candidates++
			if !engine.HasLabel(w.vlabels, v, root.label) {
				continue
			}
			w.levels[0].Extended++
			w.match[0] = v
			// Depth-0 loops have no restrictions (no earlier levels).
			for _, br := range root.branches {
				for _, idx := range br.enders {
					w.counts[idx]++
				}
				for _, child := range br.children {
					w.exec(child, 1)
				}
			}
		}
	}
}

// exec runs a merged loop at the given depth: compute candidates once,
// then per valid candidate evaluate each restriction branch, counting
// enders and recursing into children. When no branch has children the
// loop degenerates into pure counting (the fast path compiled schedules
// end with).
func (w *azWorker) exec(node *trieNode, depth int) {
	leaf := true
	for _, br := range node.branches {
		if len(br.children) > 0 {
			leaf = false
			break
		}
	}
	if leaf {
		w.execLeaf(node, depth)
		return
	}
	cands := w.candidates(node, depth)

	// Per-branch restriction windows depend only on the bound prefix, so
	// compute them once per loop execution, into per-depth scratch — this
	// runs once per partial embedding and must not allocate at steady
	// state.
	wins := w.wins[depth][:0]
	for _, br := range node.branches {
		win := azWindow{upper: ^uint32(0)}
		for _, j := range br.greater {
			if w.match[j] >= win.lower {
				win.lower, win.hasLower = w.match[j], true
			}
		}
		for _, j := range br.smaller {
			if w.match[j] <= win.upper {
				win.upper, win.hasUpper = w.match[j], true
			}
		}
		wins = append(wins, win)
	}
	w.wins[depth] = wins

	w.levels[depth].Candidates += uint64(len(cands))
	var ext uint64
	for _, v := range cands {
		if !engine.HasLabel(w.vlabels, v, node.label) {
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
		for bi, br := range node.branches {
			win := wins[bi]
			if win.hasLower && v <= win.lower || win.hasUpper && v >= win.upper {
				continue
			}
			for _, idx := range br.enders {
				w.counts[idx]++
			}
			for _, child := range br.children {
				w.exec(child, depth+1)
			}
		}
	}
	w.levels[depth].Extended += ext
}

// execLeaf runs a merged loop whose branches are all childless — the
// terminal shape every compiled schedule bottoms out in. Nothing
// downstream needs the bindings, so the loop counts through the
// count-only kernels: a single branch never materializes the candidate
// set at all (CountExtensions), while sibling branches — which by
// construction share connect/disconnect and differ only in restrictions —
// materialize the shared set once and then count each branch's window
// arithmetically.
func (w *azWorker) execLeaf(node *trieNode, depth int) {
	if len(node.branches) == 1 {
		br := node.branches[0]
		var t0 time.Time
		if w.instrument {
			t0 = time.Now()
		}
		lo, hi := branchWindow(br, w.match)
		if f, ok := engine.LevelFilter(w.g, lo, hi, node.label); ok {
			var n uint64
			n, w.bufA[depth], w.bufB[depth] = w.pins.CountExtensions(node.connect, node.disconnect, node.check, f, w.bufA[depth], w.bufB[depth], &w.sst)
			for _, idx := range br.enders {
				w.counts[idx] += n
			}
			// Count-only leaf: the candidate set is never materialized, so
			// the extension count stands in for both fields (see
			// engine.Stats.Levels).
			w.levels[depth].Candidates += n
			w.levels[depth].Extended += n
		}
		if w.instrument {
			w.st.SetOpTime += time.Since(t0)
		}
		return
	}
	cands := w.candidates(node, depth)
	w.levels[depth].Candidates += uint64(len(cands))
	var t0 time.Time
	if w.instrument {
		t0 = time.Now()
	}
	for _, br := range node.branches {
		lo, hi := branchWindow(br, w.match)
		f, ok := engine.LevelFilter(w.g, lo, hi, node.label)
		if !ok {
			continue
		}
		n := setops.CountF(cands, f, &w.sst)
		for _, j := range node.check {
			if u := w.match[j]; f.Pass(u) && setops.Contains(cands, u) {
				n--
			}
		}
		for _, idx := range br.enders {
			w.counts[idx] += n
		}
		// Sibling branches count overlapping windows of the shared set, so
		// Extended may exceed a single branch's yield — it measures work
		// done, not distinct bindings.
		w.levels[depth].Extended += n
	}
	if w.instrument {
		w.st.SetOpTime += time.Since(t0)
	}
}

// branchWindow resolves a branch's symmetry restrictions against the
// bound prefix as a half-open window [lo, hi).
func branchWindow(br *trieBranch, match []uint32) (lo, hi uint32) {
	lo, hi = 0, ^uint32(0)
	for _, j := range br.greater {
		if match[j]+1 > lo {
			lo = match[j] + 1
		}
	}
	for _, j := range br.smaller {
		if match[j] < hi {
			hi = match[j]
		}
	}
	return lo, hi
}

func (w *azWorker) candidates(node *trieNode, depth int) []uint32 {
	var t0 time.Time
	if w.instrument {
		t0 = time.Now()
	}
	var cur []uint32
	cur, w.bufA[depth], w.bufB[depth] = w.pins.Candidates(node.connect, node.disconnect, w.bufA[depth], w.bufB[depth], &w.sst)
	if w.instrument {
		w.st.SetOpTime += time.Since(t0)
	}
	return cur
}
