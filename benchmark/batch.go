package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"morphing/internal/aggr"
	"morphing/internal/apps/fsm"
	"morphing/internal/canon"
	"morphing/internal/core"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/plan"
	"morphing/internal/setops"
)

type runStats = core.RunStats

// appStats is what one query through an app entry point returned beside
// its answer.
type appStats struct {
	queries  []*pattern.Pattern // count apps: the query set
	runs     []*runStats        // one per pipeline execution (FSM: one per level)
	fsm      *fsm.Stats
	frequent int
}

// batchEnv is a batch workload set up and ready to be queried.
type batchEnv struct {
	plain *graph.Graph    // the generated graph
	adj   graph.Adjacency // the tier the queries mine
	eng   engine.Engine
	h     *graph.Handle // mmap workloads: the opened file
	foot  graph.Footprint
}

func (e *batchEnv) close() {
	if e != nil && e.h != nil {
		e.h.Close()
	}
}

// setupBatch prepares a batch workload from nothing: generate the graph,
// convert and open its tier, construct the engine. With a tracer each
// step is a span under parent.
func setupBatch(rc *runConfig, instrument bool, tr *tracer, parent int) (*batchEnv, error) {
	step := func(name string, f func() error) error {
		if tr == nil {
			return f()
		}
		_, err := tr.timed(name, parent, 0, f)
		return err
	}
	env := &batchEnv{}
	err := step("dataset.Generate", func() (err error) {
		env.plain, err = makeGraph(rc.p, rc.quick, rc.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	env.adj = env.plain
	if rc.p.mmap {
		var cg *graph.CompressedGraph
		if err := step("graph.Compress", func() (err error) {
			cg, err = graph.Compress(env.plain, 0)
			return err
		}); err != nil {
			return nil, err
		}
		env.foot = cg.Footprint()
		path := filepath.Join(rc.outDir, rc.name+".mcsr")
		if err := step("graph.WriteBinary2", func() error {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := cg.WriteBinary2(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}); err != nil {
			return nil, err
		}
		if err := step("graph.Open", func() (err error) {
			env.h, err = graph.Open(path, graph.OpenOptions{})
			return err
		}); err != nil {
			return nil, err
		}
		env.adj = env.h.Graph()
	}
	env.eng = newEngine(rc.p.engine, instrument)
	return env, nil
}

// runBatch is one contract run of a batch workload.
func runBatch(ctx context.Context, rc *runConfig) (*outcome, error) {
	out := newOutcome()

	// The expected answer, by another route than the timed one; not part
	// of set-up time, it is the benchmark's own cost.
	plain, err := makeGraph(rc.p, rc.quick, rc.seed)
	if err != nil {
		return nil, err
	}
	want, err := reference(ctx, rc.p, plain)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if rc.seed == goldenSeed {
		out.attempted++
		if gold, ok := rc.gold.lookup(rc.name, rc.quick); !ok || !want.equal(gold) {
			out.fail("reference answer differs from the golden file")
		}
	}
	check := func(got answer, err error) bool {
		out.attempted++
		if err != nil {
			out.fail(err.Error())
			return false
		}
		if !got.equal(want) {
			out.fail("answer differs from the reference route")
			return false
		}
		return true
	}
	if rc.trace {
		return out, traceBatch(ctx, rc, out, check)
	}

	// Set-up, several times over so that its median is steady: from
	// nothing to the first answer, which takes whatever a cold first query
	// builds lazily into set-up time, where later work moved there shows.
	var env *batchEnv
	var setups, rawSetups []float64
	for i := 0; i < rc.setupReps; i++ {
		env.close()
		runtime.GC()
		var got answer
		ref, raw := scaled(func() {
			if env, err = setupBatch(rc, false, nil, -1); err == nil {
				got, _, err = runApp(ctx, rc.p, env.adj, env.eng, rc.p.morph)
			}
		})
		if env == nil {
			return nil, err
		}
		setups, rawSetups = append(setups, ref), append(rawSetups, raw)
		check(got, err)
	}
	defer env.close()

	// Timed phase: one caller, one complete query at a time.
	segs := phase(rc.seconds, func(done func() bool) (ops []op) {
		t0 := time.Now()
		for !done() {
			runtime.GC() // outside the timer, so every query starts from a collected heap
			t := time.Since(t0)
			got, _, err := runApp(ctx, rc.p, env.adj, env.eng, rc.p.morph)
			ops = append(ops, op{start: t, end: time.Since(t0), ok: check(got, err)})
		}
		return ops
	})
	out.summarise(segs, 1)
	out.set("setup_s", median(setups), len(setups))
	out.rawSetup = median(rawSetups)
	out.set("peak_rss_mb", selfPeakRSSMiB(), 1)
	return out, nil
}

// minTracedReps is how many replayed queries a traced pass holds at least.
const minTracedReps = 3

// traceBatch is the traced pass: per-layer metrics from counters the
// program returns and from spans the benchmark records around the calls
// into each layer. End-to-end numbers never come from here.
func traceBatch(ctx context.Context, rc *runConfig, out *outcome, check func(answer, error) bool) error {
	tr := newTracer()
	root := tr.begin("setup", -1, 0)
	env, err := setupBatch(rc, true, tr, root)
	if err != nil {
		return err
	}
	defer env.close()
	tr.end(root)
	plainEng := newEngine(rc.p.engine, false)

	// Warm-up through the public entry point; its RunStats say which route
	// the runner takes, which the replay then follows.
	got, warm, err := runApp(ctx, rc.p, env.adj, env.eng, rc.p.morph)
	if !check(got, err) {
		return nil
	}

	var untraced, instrumented, replayed, other, sdag, transform, trieBuild, mine, convert, canonT []float64
	var last *appStats
	var mem0, mem1 runtime.MemStats
	var allocMB, allocs, gcs, pauseMS float64
	var tables int
	start := time.Now()
	for q := 1; q <= minTracedReps || time.Since(start).Seconds() < rc.seconds; q++ {
		// (1) the query as the timed pass runs it.
		runtime.GC()
		t0 := time.Now()
		got, _, err := runApp(ctx, rc.p, env.adj, plainEng, rc.p.morph)
		untraced = append(untraced, time.Since(t0).Seconds())
		check(got, err)

		// (2) the same query with the engine's Instrument on: counters and
		// the engine's own phase clocks, and the Go runtime's bill for it.
		runtime.GC()
		runtime.ReadMemStats(&mem0)
		t0 = time.Now()
		got, last, err = runApp(ctx, rc.p, env.adj, env.eng, rc.p.morph)
		instrumented = append(instrumented, time.Since(t0).Seconds())
		runtime.ReadMemStats(&mem1)
		if !check(got, err) {
			return nil
		}
		allocMB += float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20)
		allocs += float64(mem1.Mallocs - mem0.Mallocs)
		gcs += float64(mem1.NumGC - mem0.NumGC)
		pauseMS += float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6

		// (3) the stages replayed under spans, Instrument off: the spans
		// themselves cost next to nothing, the engine's phase clocks do not.
		runtime.GC()
		var rp *replay
		if rc.p.app == "fsm" {
			rp, err = replayFSM(ctx, tr, q, env, plainEng, warm)
		} else {
			rp, err = replayCounts(ctx, tr, q, env, plainEng, rc.p.morph, warm)
		}
		if !check(rp.got, err) {
			return nil
		}
		replayed = append(replayed, rp.total.Seconds())
		sdag = append(sdag, rp.sdag.Seconds())
		transform = append(transform, rp.transform.Seconds())
		trieBuild = append(trieBuild, rp.trieBuild.Seconds())
		mine = append(mine, rp.mine.Seconds())
		convert = append(convert, rp.convert.Seconds())
		canonT = append(canonT, rp.canon.Seconds())
		tables = rp.tables

		// (4) the other route on the same engine and tier, for the morph
		// speed-up; the GraphPi model has no direct route for
		// vertex-induced queries.
		if rc.p.engine != "graphpi" {
			runtime.GC()
			t0 = time.Now()
			got, _, err = runApp(ctx, rc.p, env.adj, plainEng, !rc.p.morph)
			other = append(other, time.Since(t0).Seconds())
			check(got, err)
		}
	}

	n := float64(len(untraced))
	m := out.layer
	m["core.sdag_s"] = median(sdag)
	m["core.select_s"] = max(0, median(transform)-median(sdag))
	m["core.convert_s"] = median(convert)
	m["canon.canonicalize_s"] = median(canonT)
	m["plan.trie_build_s"] = median(trieBuild)
	m["engine.mine_s"] = median(mine)
	if len(other) > 0 {
		direct, morph := median(other), median(untraced)
		if !rc.p.morph {
			direct, morph = morph, direct
		}
		m["core.morph_speedup"] = direct / morph
	}
	m["trace.unattributed_share"] = tr.unattributed("query")
	m["trace.overhead_share"] = (median(instrumented) - median(untraced)) / median(untraced)
	m["trace.replay_share"] = median(replayed) / median(untraced)
	m["go.alloc_mb_per_query"] = allocMB / n
	m["go.allocs_per_query"] = allocs / n
	m["go.gc_cycles_per_query"] = gcs / n
	m["go.gc_pause_ms_per_query"] = pauseMS / n
	m["aggr.mni_tables"] = float64(tables)
	counters(m, last, env)
	setopsProbe(m, env.plain, rc.seed)
	for _, s := range tr.spans {
		switch s.name {
		case "graph.Compress":
			m["graph.compress_s"] = (s.end - s.start).Seconds()
		case "graph.Open":
			m["graph.open_s"] = (s.end - s.start).Seconds()
		}
	}
	out.samples = len(untraced)
	return tr.writeChrome(filepath.Join(rc.outDir, "trace-"+rc.name+".json"))
}

// replay is what one replayed query measured.
type replay struct {
	got                                                     answer
	total, sdag, transform, trieBuild, mine, convert, canon time.Duration
	tables                                                  int
}

func minePatterns(sel *core.Selection) []*pattern.Pattern {
	ps := make([]*pattern.Pattern, len(sel.Mine))
	for i, c := range sel.Mine {
		ps[i] = c.Pattern
	}
	return ps
}

// replayCounts replays a counting query's stages the way
// core.Runner.CountsCtx strings them together — transform, plan, mine,
// convert — each under a span. The S-DAG build is probed on its own
// outside the query's span, because Runner.Transform does not expose it.
func replayCounts(ctx context.Context, tr *tracer, q int, env *batchEnv, eng engine.Engine, morph bool, warm *appStats) (*replay, error) {
	rp := &replay{}
	queries := warm.queries
	r := &core.Runner{Engine: eng, DisableMorphing: !morph}
	if morph {
		var err error
		if rp.sdag, err = tr.timed("core.BuildSDAG", -1, q, func() error {
			_, err := core.BuildSDAG(queries)
			return err
		}); err != nil {
			return rp, err
		}
	}
	root := tr.begin("query", -1, q)
	var sel *core.Selection
	var err error
	if rp.transform, err = tr.timed("core.Runner.Transform", root, q, func() (err error) {
		sel, err = r.Transform(env.adj, queries, aggr.Count{})
		return err
	}); err != nil {
		return rp, err
	}
	ps := minePatterns(sel)
	var counts []uint64
	if dec := warm.runs[0].Trie; dec != nil && dec.Used {
		planner := eng.(engine.Planner)
		var trie *plan.Trie
		if rp.trieBuild, err = tr.timed("engine.BuildTrie", root, q, func() (err error) {
			trie, err = engine.BuildTrie(planner, env.adj, ps)
			return err
		}); err != nil {
			return rp, err
		}
		rp.mine, err = tr.timed("engine.BacktrackTrieCtx", root, q, func() (err error) {
			opts, o := planner.ExecConfig()
			counts, _, err = engine.BacktrackTrieCtx(ctx, env.adj, trie, opts, o)
			return err
		})
	} else {
		rp.mine, err = tr.timed("engine.CountAllCtx", root, q, func() (err error) {
			counts, _, err = engine.CountAllCtx(ctx, eng, env.adj, ps)
			return err
		})
	}
	if err != nil {
		return rp, err
	}
	var vals []aggr.Value
	if rp.convert, err = tr.timed("core.Selection.Convert", root, q, func() (err error) {
		mined := make([]aggr.Value, len(counts))
		for i, c := range counts {
			mined[i] = c
		}
		vals, err = sel.Convert(aggr.Count{}, mined)
		return err
	}); err != nil {
		return rp, err
	}
	rp.total = tr.end(root)
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = v.(uint64)
	}
	rp.got = countAnswer(queries, out)
	return rp, nil
}

// replayFSM replays each FSM level's candidate set through
// Runner.MNITablesCtx under a span; the transform, mine and convert
// children are laid inside it from the durations its RunStats returns.
// S-DAG build and canonicalisation of the level's candidates are probed
// outside the query's span. The runner is configured as fsm.MineCtx
// configures its own (per-match cost |V|/1000).
func replayFSM(ctx context.Context, tr *tracer, q int, env *batchEnv, eng engine.Engine, warm *appStats) (*replay, error) {
	rp := &replay{got: answer{}}
	r := &core.Runner{Engine: eng, PerMatchCost: float64(env.adj.NumVertices()) / 1000}
	minSupport := env.adj.NumVertices() / fsmSupportDivisor
	levels := make([][]*pattern.Pattern, len(warm.runs))
	for i, run := range warm.runs {
		for _, qu := range run.Selection.Queries {
			levels[i] = append(levels[i], qu.Pattern)
		}
		d, err := tr.timed("core.BuildSDAG", -1, q, func() error {
			_, err := core.BuildSDAG(levels[i])
			return err
		})
		if err != nil {
			return rp, err
		}
		rp.sdag += d
		d, _ = tr.timed("canon.Canonicalize", -1, q, func() error {
			for _, p := range levels[i] {
				canon.Canonicalize(p)
			}
			return nil
		})
		rp.canon += d
	}
	root := tr.begin("query", -1, q)
	for _, qs := range levels {
		id := tr.begin("core.Runner.MNITablesCtx", root, q)
		tables, rs, err := r.MNITablesCtx(ctx, env.adj, qs)
		tr.end(id)
		if err != nil {
			return rp, err
		}
		s := tr.spans[id]
		mineT := rs.Mining.TotalTime
		tr.add(span{name: "core.transform", parent: id, query: q, start: s.start, end: s.start + rs.Transform})
		tr.add(span{name: "engine.mine", parent: id, query: q, start: s.start + rs.Transform, end: s.start + rs.Transform + mineT})
		tr.add(span{name: "core.convert", parent: id, query: q, start: s.end - rs.Convert, end: s.end})
		rp.transform += rs.Transform
		rp.mine += mineT
		rp.convert += rs.Convert
		rp.tables += len(tables)
		for i, t := range tables {
			if sup := t.Support(); sup >= minSupport {
				rp.got[canon.Canonicalize(qs[i]).String()] = uint64(sup)
			}
		}
	}
	rp.total = tr.end(root)
	return rp, nil
}

// counters fills the per-layer counts from what the last instrumented
// query through the public entry point returned.
func counters(m map[string]float64, st *appStats, env *batchEnv) {
	var mining engine.Stats
	var costBefore, costAfter float64
	var decode graph.DecodeStats
	for _, run := range st.runs {
		if run.Mining != nil {
			mining.Add(run.Mining)
		}
		if sel := run.Selection; sel != nil {
			m["core.mined_patterns"] += float64(len(sel.Mine))
			for _, q := range sel.Queries {
				if q.Morphed {
					m["core.morphed_queries"]++
				}
			}
			costBefore += sel.CostBefore
			costAfter += sel.CostAfter
		}
		if t := run.Trie; t != nil && t.Used {
			m["plan.trie_nodes"] += float64(t.Nodes)
			m["plan.trie_shared_levels"] += float64(t.SharedLevels)
		}
		if run.Decode != nil {
			decode.Add(*run.Decode)
		}
		if res := run.Residency; res != nil && res.Sampled && res.MappedBytes > 0 {
			m["graph.resident_share"] = float64(res.ResidentBytes) / float64(res.MappedBytes)
		}
	}
	if costBefore > 0 {
		m["core.cost_ratio"] = costAfter / costBefore
	}
	m["engine.setop_time_s"] = mining.SetOpTime.Seconds()
	m["engine.materialize_time_s"] = mining.MaterializeTime.Seconds()
	m["engine.udf_time_s"] = mining.UDFTime.Seconds()
	m["engine.matches"] = float64(mining.Matches)
	m["engine.materialized"] = float64(mining.Materialized)
	m["engine.udf_calls"] = float64(mining.UDFCalls)
	m["engine.branches"] = float64(mining.Branches)
	m["engine.trie_passes"] = float64(mining.TriePasses)
	m["engine.tail_steals"] = float64(mining.TailSteals)
	var busy, maxBusy time.Duration
	for _, w := range mining.Workers {
		busy += w.Time
		maxBusy = max(maxBusy, w.Time)
	}
	m["engine.worker_busy_s"] = busy.Seconds()
	if n := len(mining.Workers); n > 0 && busy > 0 && mining.TotalTime > 0 {
		m["engine.idle_share"] = max(0, 1-float64(busy)/(float64(n)*float64(mining.TotalTime)))
		m["engine.worker_skew"] = float64(maxBusy) * float64(n) / float64(busy)
	}
	m["setops.ops"] = float64(mining.SetOps)
	m["setops.elems"] = float64(mining.SetElems)
	m["setops.written_elems"] = float64(mining.SetWritten)
	m["setops.merge_ops"] = float64(mining.SetMergeOps)
	m["setops.gallop_ops"] = float64(mining.SetGallopOps)
	m["setops.bitset_ops"] = float64(mining.SetBitsetOps)
	m["setops.unrolled_ops"] = float64(mining.SetUnrolledOps)
	m["setops.tile_ops"] = float64(mining.SetTileOps)
	m["setops.countonly_ops"] = float64(mining.SetCountOps)
	m["graph.decode_rows"] = float64(decode.Rows)
	m["graph.decode_elems"] = float64(decode.Elems)
	if ne := env.adj.NumEdges(); ne > 0 {
		m["graph.decode_elems_per_edge"] = float64(decode.Elems) / float64(ne)
	}
	if probes := decode.ProbeHits + decode.ProbeMisses; probes > 0 {
		m["graph.probe_hit_share"] = float64(decode.ProbeHits) / float64(probes)
	}
	m["graph.bytes_per_edge"] = env.foot.BytesPerEdge
	if st.fsm != nil {
		m["apps.fsm_levels"] = float64(st.fsm.Levels)
		m["apps.fsm_candidates"] = float64(st.fsm.Candidates)
		m["apps.fsm_frequent"] = float64(st.frequent)
	}
}

// setopsProbe times the three set kernels the engines lean on, from
// outside, on seeded pairs of adjacent vertices' rows of the workload's
// own graph: nanoseconds per input element, best of five passes.
func setopsProbe(m map[string]float64, g *graph.Graph, seed int64) {
	const pairs = 4096
	type pair struct{ a, b []uint32 }
	rows := make([]pair, 0, pairs)
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	elems := 0
	for len(rows) < pairs {
		u := uint32(rng.Intn(n))
		nu := g.Neighbors(u)
		if len(nu) == 0 {
			continue
		}
		nv := g.Neighbors(nu[rng.Intn(len(nu))])
		rows = append(rows, pair{nu, nv})
		elems += len(nu) + len(nv)
	}
	dst := make([]uint32, 0, g.MaxDegree())
	arena := setops.NewArena() // the engines' workers carry one; without it the tile kernel is never chosen
	probe := func(f func(p pair, st *setops.Stats)) float64 {
		best := time.Duration(0)
		for pass := 0; pass < 5; pass++ {
			st := setops.Stats{Scratch: arena}
			t0 := time.Now()
			for _, p := range rows {
				f(p, &st)
			}
			if d := time.Since(t0); pass == 0 || d < best {
				best = d
			}
		}
		return float64(best.Nanoseconds()) / float64(elems)
	}
	m["setops.intersect_ns_per_elem"] = probe(func(p pair, st *setops.Stats) { dst = setops.Intersect(dst[:0], p.a, p.b, st) })
	m["setops.difference_ns_per_elem"] = probe(func(p pair, st *setops.Stats) { dst = setops.Difference(dst[:0], p.a, p.b, st) })
	var sink uint64
	m["setops.intersect_count_ns_per_elem"] = probe(func(p pair, st *setops.Stats) { sink += setops.IntersectCountF(p.a, p.b, setops.All(), st) })
	_ = sink
}
