// Package bigjoin models the BigJoin system [4]: subgraph queries
// evaluated as worst-case optimal joins over a dataflow. Each pattern
// vertex is an attribute bound by one pipeline stage; batches of prefix
// tuples flow through channels from stage to stage, and every stage
// extends each prefix by intersecting the adjacency lists of its bound
// neighbors. The original runs distributed on Timely Dataflow; this model
// keeps the dataflow structure (batched tuples, per-stage parallelism,
// low-memory streaming) in-process with goroutines and channels.
//
// Like the real system, only edge-induced patterns are matched natively;
// vertex-induced results need a Filter UDF (Fig. 4e) or Subgraph Morphing.
package bigjoin

import (
	"context"
	"fmt"
	"runtime/debug"
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

// Engine is a BigJoin-model matching engine.
type Engine struct {
	// Threads is the total worker budget across stages (0 = GOMAXPROCS).
	Threads int
	// BatchSize is the number of prefix tuples per dataflow batch
	// (0 = 1024).
	BatchSize int
	// Instrument enables phase timings.
	Instrument bool
	// Obs receives metrics and mine/<pattern> spans (nil = obs.Default()).
	Obs *obs.Observer
}

var (
	_ engine.CtxEngine = (*Engine)(nil)
	_ engine.Planner   = (*Engine)(nil)
)

// PlanPattern implements engine.Planner. BigJoin derives its dataflow
// stages from the default plan (see run), so the trie path reuses the
// same orders; unsupported semantics are rejected exactly like run.
func (e *Engine) PlanPattern(_ graph.Adjacency, p *pattern.Pattern) (*plan.Plan, error) {
	if p.HasExplicitAntiEdges() {
		return nil, fmt.Errorf("bigjoin: %w", engine.ErrInducedUnsupported)
	}
	if p.Induced() == pattern.VertexInduced {
		if !p.IsClique() {
			return nil, fmt.Errorf("bigjoin: %w", engine.ErrInducedUnsupported)
		}
		p = p.AsEdgeInduced()
	}
	pl, err := plan.Build(p)
	if err != nil {
		return nil, fmt.Errorf("bigjoin: %w", err)
	}
	return pl, nil
}

// ExecConfig implements engine.Planner.
func (e *Engine) ExecConfig() (engine.ExecOptions, *obs.Observer) {
	return engine.ExecOptions{Threads: e.Threads, Instrument: e.Instrument}, e.Obs
}

// New returns an engine with the given worker budget.
func New(threads int) *Engine { return &Engine{Threads: threads} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "BigJoin" }

// SupportsInduced implements engine.Engine.
func (e *Engine) SupportsInduced(iv pattern.Induced) bool {
	return iv == pattern.EdgeInduced
}

// Count returns the number of unique edge-induced matches of p in g.
func (e *Engine) Count(g graph.Adjacency, p *pattern.Pattern) (uint64, *engine.Stats, error) {
	return e.run(context.Background(), g, p, nil)
}

// CountCtx implements engine.CtxEngine.
func (e *Engine) CountCtx(ctx context.Context, g graph.Adjacency, p *pattern.Pattern) (uint64, *engine.Stats, error) {
	return e.run(ctx, g, p, nil)
}

// CountAll counts each pattern independently (BigJoin evaluates one query
// dataflow at a time).
func (e *Engine) CountAll(g graph.Adjacency, ps []*pattern.Pattern) ([]uint64, *engine.Stats, error) {
	return e.CountAllCtx(context.Background(), g, ps)
}

// CountAllCtx implements engine.CtxEngine. On interruption the returned
// slice holds the per-pattern partial counts accumulated so far.
func (e *Engine) CountAllCtx(ctx context.Context, g graph.Adjacency, ps []*pattern.Pattern) ([]uint64, *engine.Stats, error) {
	counts := make([]uint64, len(ps))
	total := &engine.Stats{}
	for i, p := range ps {
		c, st, err := e.run(ctx, g, p, nil)
		counts[i] = c
		if st != nil {
			total.Add(st)
		}
		if err != nil {
			return counts, total, err
		}
	}
	return counts, total, nil
}

// Match streams every unique edge-induced match of p to visit.
func (e *Engine) Match(g graph.Adjacency, p *pattern.Pattern, visit engine.Visitor) (*engine.Stats, error) {
	_, st, err := e.run(context.Background(), g, p, visit)
	return st, err
}

// MatchCtx implements engine.CtxEngine: Match with cooperative
// cancellation at batch boundaries and visitor-panic containment.
func (e *Engine) MatchCtx(ctx context.Context, g graph.Adjacency, p *pattern.Pattern, visit engine.Visitor) (*engine.Stats, error) {
	_, st, err := e.run(ctx, g, p, visit)
	return st, err
}

// CountVertexInducedViaFilter counts vertex-induced matches the
// pre-morphing way: run the edge-induced dataflow and append a Filter UDF
// stage probing every non-adjacent pattern pair for extra edges
// (Fig. 4e / Fig. 14b).
func (e *Engine) CountVertexInducedViaFilter(g graph.Adjacency, p *pattern.Pattern) (uint64, *engine.Stats, error) {
	return e.CountVertexInducedViaFilterCtx(context.Background(), g, p)
}

// CountVertexInducedViaFilterCtx is CountVertexInducedViaFilter under a
// context (partial counts on interruption).
func (e *Engine) CountVertexInducedViaFilterCtx(ctx context.Context, g graph.Adjacency, p *pattern.Pattern) (uint64, *engine.Stats, error) {
	return engine.CountViaEdgeFilter(ctx, g, p.NonEdges(), e.Obs, func(visit engine.Visitor) (*engine.Stats, error) {
		_, st, err := e.run(ctx, g, p.AsEdgeInduced(), visit)
		return st, err
	})
}

// runSingle evaluates the degenerate single-attribute query (no joins):
// a label scan over the vertices, with the context checked at
// batch-sized strides and visitor panics contained like any stage
// worker's.
func runSingle(ctx context.Context, g graph.Adjacency, p *pattern.Pattern, visit engine.Visitor, batchSize int, total *uint64, st *engine.Stats) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &engine.PanicError{Worker: 0, Value: r, Stack: debug.Stack()}
		}
	}()
	want, labels := p.Label(0), g.Labels()
	done := ctx.Done()
	var cands, ext uint64
	defer func() { st.AddLevel(0, cands, ext) }()
	for v := uint32(0); v < uint32(g.NumVertices()); v++ {
		if int(v)%batchSize == 0 {
			select {
			case <-done:
				return engine.CtxErr(ctx)
			default:
			}
		}
		cands++
		if !engine.HasLabel(labels, v, want) {
			continue
		}
		ext++
		*total++
		if visit != nil {
			st.UDFCalls++
			st.Materialized++
			visit(0, []uint32{v})
		}
	}
	return nil
}

// batch is a block of prefix tuples: width consecutive entries of data per
// tuple, tuples indexed by plan level.
type batch struct {
	data  []uint32
	width int
}

func (b *batch) tuples() int { return len(b.data) / b.width }

// run evaluates one query dataflow. Cancellation is cooperative at batch
// granularity: the source stops emitting and every stage worker drains
// (without processing) once the shared abort flag is set, so channel
// sends never block against a stopped consumer and the stage-closure
// chain still runs to completion. A visitor panic is recovered in the
// owning stage worker, flips the same abort flag, and surfaces as a
// single *engine.PanicError; partially accumulated counts are returned
// either way (the partial-result contract of engine.CtxErr).
func (e *Engine) run(ctx context.Context, g graph.Adjacency, p *pattern.Pattern, visit engine.Visitor) (uint64, *engine.Stats, error) {
	start := time.Now()
	if err := engine.CtxErr(ctx); err != nil {
		return 0, nil, err
	}
	fi := faultinject.Active()
	ctx, fiStop := fi.Context(ctx)
	defer fiStop()
	visit = fi.Visitor(visit)
	// Run scope on the context wins over the engine's observer (see
	// engine.BacktrackCtx).
	o := obs.FromContext(ctx, e.Obs)
	defer o.StartSpan("mine/"+p.String(), obs.Str("engine", e.Name())).End()
	liveMatches := o.Counter(engine.MetricMatches)
	if p.HasExplicitAntiEdges() {
		return 0, nil, fmt.Errorf("bigjoin: %w", engine.ErrInducedUnsupported)
	}
	if p.Induced() == pattern.VertexInduced {
		if !p.IsClique() {
			return 0, nil, fmt.Errorf("bigjoin: %w", engine.ErrInducedUnsupported)
		}
		p = p.AsEdgeInduced()
	}
	pl, err := plan.Build(p)
	if err != nil {
		return 0, nil, fmt.Errorf("bigjoin: %w", err)
	}
	k := p.N()
	batchSize := e.BatchSize
	if batchSize <= 0 {
		batchSize = 1024
	}
	totalWorkers := engine.ExecOptions{Threads: e.Threads}.ThreadCount()

	st := &engine.Stats{}
	var total uint64

	if k == 1 {
		err := runSingle(ctx, g, p, visit, batchSize, &total, st)
		st.Matches = total
		st.TotalTime = time.Since(start)
		st.AddWorker(engine.WorkerStats{Worker: 0, Time: st.TotalTime, Matches: total})
		liveMatches.Add(0, total)
		engine.PublishStats(o, st)
		engine.PublishAbort(o, err)
		return total, st, err
	}

	// One extend stage per level 1..k-1, each with a share of the worker
	// budget.
	numStages := k - 1
	perStage := totalWorkers / numStages
	if perStage < 1 {
		perStage = 1
	}
	chans := make([]chan *batch, k) // chans[i] feeds the stage binding level i
	for i := 1; i < k; i++ {
		chans[i] = make(chan *batch, 4*perStage)
	}

	done := ctx.Done()
	var abort atomic.Bool // set by cancellation or a stage-worker panic
	var panicOnce sync.Once
	var panicErr *engine.PanicError
	workers := make([]*bjWorker, 0, numStages*perStage)
	var stageWGs = make([]sync.WaitGroup, k)
	globalID := 0
	for level := 1; level < k; level++ {
		var out chan *batch
		if level+1 < k {
			out = chans[level+1]
		}
		for wi := 0; wi < perStage; wi++ {
			w := newBJWorker(globalID, g, pl, level, batchSize, out, visit, e.Instrument)
			globalID++
			workers = append(workers, w)
			stageWGs[level].Add(1)
			go func(w *bjWorker, in chan *batch, level int) {
				defer stageWGs[level].Done()
				// Panic containment: record the first panic, flip the
				// abort flag, then keep draining the input channel so
				// upstream sends never block against a dead consumer.
				defer func() {
					if r := recover(); r != nil {
						pe := &engine.PanicError{Worker: w.id, Value: r, Stack: debug.Stack()}
						panicOnce.Do(func() { panicErr = pe })
						abort.Store(true)
						for range in {
						}
					}
				}()
				for b := range in {
					if abort.Load() {
						continue // drain without processing
					}
					fi.BlockClaimed(w.id)
					before := w.count
					// Busy time accrues per batch, not per goroutine
					// lifetime: stage workers spend most of their wall-clock
					// blocked on the input channel, which is idleness, not
					// load — the skew histograms want processing time only.
					t0 := time.Now()
					w.process(b)
					w.busy += time.Since(t0)
					if w.last {
						liveMatches.Add(w.id, w.count-before)
					}
				}
				if !abort.Load() {
					w.flush()
				}
			}(w, chans[level], level)
		}
	}
	// Stage closers: when all workers of a stage finish, close downstream.
	for level := 1; level < k-1; level++ {
		go func(level int) {
			stageWGs[level].Wait()
			close(chans[level+1])
		}(level)
	}

	// Source: emit level-0 bindings in batches, stopping at the next batch
	// boundary once the context fires or a stage worker aborts.
	stopped := func() bool {
		if abort.Load() {
			return true
		}
		select {
		case <-done:
			abort.Store(true)
			return true
		default:
			return false
		}
	}
	src := &batch{width: 1}
	want, labels := p.Label(pl.Order[0]), g.Labels()
	var srcCands, srcExt uint64
	for v := uint32(0); v < uint32(g.NumVertices()); v++ {
		srcCands++
		if !engine.HasLabel(labels, v, want) {
			continue
		}
		srcExt++
		src.data = append(src.data, v)
		if src.tuples() >= batchSize {
			if stopped() {
				break
			}
			chans[1] <- src
			src = &batch{width: 1}
		}
	}
	if len(src.data) > 0 && !stopped() {
		chans[1] <- src
	}
	close(chans[1])
	stageWGs[k-1].Wait()

	st.AddLevel(0, srcCands, srcExt)
	for _, w := range workers {
		total += w.count
		w.st.AddSetops(w.sst)
		w.st.AddLevel(w.level, w.lvl.Candidates, w.lvl.Extended)
		w.st.Workers = []engine.WorkerStats{{Worker: w.id, Time: w.busy, Matches: w.count}}
		st.Add(&w.st)
		w.release()
	}
	st.Matches = total
	st.TotalTime = time.Since(start)
	engine.PublishStats(o, st)
	if panicErr != nil {
		engine.PublishAbort(o, panicErr)
		return total, st, panicErr
	}
	if err := engine.CtxErr(ctx); err != nil && abort.Load() {
		engine.PublishAbort(o, err)
		return total, st, err
	}
	return total, st, nil
}

// bjWorker extends prefixes of length `level` by one binding.
type bjWorker struct {
	id         int
	g          graph.Adjacency // per-worker view (see graph.Adjacency)
	vlabels    []int32         // g.Labels(), read once per candidate
	pins       engine.Pins     // adjacency rows of the current prefix
	pl         *plan.Plan
	level      int
	last       bool
	batchSize  int
	out        chan *batch // nil at the last stage
	visit      engine.Visitor
	instrument bool

	st       engine.Stats
	sst      setops.Stats
	lvl      engine.LevelStats // this stage's selectivity, folded at merge
	busy     time.Duration     // time spent processing batches
	count    uint64
	pending  *batch
	bufA     []uint32
	bufB     []uint32
	byVertex []uint32
	check    []int // last stage: prefix positions the count corrects for
	label    int32

	// arena backs the candidate buffers (sized to the graph's max degree
	// up front, so extend never regrows them) and the setops tile kernels;
	// drawn from the package pool per execution, released at merge.
	arena *setops.Arena
}

func newBJWorker(id int, g graph.Adjacency, pl *plan.Plan, level, batchSize int, out chan *batch, visit engine.Visitor, instrument bool) *bjWorker {
	k := pl.Pattern.N()
	ar := setops.GetArena()
	w := &bjWorker{
		id:         id,
		g:          g.View(),
		vlabels:    g.Labels(),
		pl:         pl,
		level:      level,
		last:       level == k-1,
		batchSize:  batchSize,
		out:        out,
		visit:      visit,
		instrument: instrument,
		pending:    &batch{width: level + 1},
		bufA:       ar.Alloc(g.MaxDegree()),
		bufB:       ar.Alloc(g.MaxDegree()),
		byVertex:   make([]uint32, k),
		check:      engine.Unconnected(nil, level, pl.Connect[level]),
		label:      pl.Pattern.Label(pl.Order[level]),
		arena:      ar,
	}
	w.sst.Scratch = ar
	w.pins.Reset(w.g, level)
	return w
}

// release returns the worker's arena to the package pool; the worker must
// not be used afterwards.
func (w *bjWorker) release() {
	w.pins.Release()
	w.sst.Scratch = nil
	w.arena.Release()
	w.arena = nil
}

func (w *bjWorker) process(b *batch) {
	for off := 0; off+b.width <= len(b.data); off += b.width {
		prefix := b.data[off : off+b.width]
		w.extend(prefix)
	}
}

// extend computes the candidates for one prefix and either counts, emits
// matches, or appends extended tuples to the output batch. Consecutive
// tuples of a batch mostly share their leading positions, whose pinned
// rows carry over from one prefix to the next.
func (w *bjWorker) extend(prefix []uint32) {
	i := w.level
	conn := w.pl.Connect[i]
	w.pins.Bind(prefix)
	if w.last && w.visit == nil {
		// Counting fast path: the last stage never materializes its
		// candidate set — the final set operation runs count-only with the
		// symmetry window and label filter fused in (see CountExtensions).
		var t0 time.Time
		if w.instrument {
			t0 = time.Now()
		}
		lo, hi := uint32(0), ^uint32(0)
		for _, j := range w.pl.Greater[i] {
			if prefix[j]+1 > lo {
				lo = prefix[j] + 1
			}
		}
		for _, j := range w.pl.Smaller[i] {
			if prefix[j] < hi {
				hi = prefix[j]
			}
		}
		if f, ok := engine.LevelFilter(w.g, lo, hi, w.label); ok {
			var n uint64
			n, w.bufA, w.bufB = w.pins.CountExtensions(conn, nil, w.check, f, w.bufA, w.bufB, &w.sst)
			w.count += n
			// Count-only stage: the candidate set is never materialized,
			// so n stands in for both fields (see engine.Stats.Levels).
			w.lvl.Candidates += n
			w.lvl.Extended += n
		}
		if w.instrument {
			w.st.SetOpTime += time.Since(t0)
		}
		return
	}
	var t0 time.Time
	if w.instrument {
		t0 = time.Now()
	}
	var cur []uint32
	cur, w.bufA, w.bufB = w.pins.Candidates(conn, nil, w.bufA, w.bufB, &w.sst)
	if w.instrument {
		w.st.SetOpTime += time.Since(t0)
	}

	hasLower, hasUpper := false, false
	lower, upper := uint32(0), ^uint32(0)
	for _, j := range w.pl.Greater[i] {
		if prefix[j] >= lower {
			lower, hasLower = prefix[j], true
		}
	}
	for _, j := range w.pl.Smaller[i] {
		if prefix[j] <= upper {
			upper, hasUpper = prefix[j], true
		}
	}

	w.lvl.Candidates += uint64(len(cur))
	for _, v := range cur {
		if hasLower && v <= lower || hasUpper && v >= upper {
			continue
		}
		if !engine.HasLabel(w.vlabels, v, w.label) {
			continue
		}
		used := false
		for _, u := range prefix {
			if u == v {
				used = true
				break
			}
		}
		if used {
			continue
		}
		w.lvl.Extended++
		if w.last {
			w.count++
			if w.visit != nil {
				w.emit(prefix, v)
			}
			continue
		}
		w.pending.data = append(w.pending.data, prefix...)
		w.pending.data = append(w.pending.data, v)
		if w.pending.tuples() >= w.batchSize {
			w.out <- w.pending
			w.pending = &batch{width: w.level + 1}
		}
	}
}

func (w *bjWorker) emit(prefix []uint32, v uint32) {
	var t0 time.Time
	if w.instrument {
		t0 = time.Now()
	}
	for lev, u := range prefix {
		w.byVertex[w.pl.Order[lev]] = u
	}
	w.byVertex[w.pl.Order[w.level]] = v
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

// flush sends any partially filled batch downstream at end of input.
func (w *bjWorker) flush() {
	if w.out != nil && len(w.pending.data) > 0 {
		w.out <- w.pending
		w.pending = &batch{width: w.level + 1}
	}
}
