package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"morphing/internal/aggr"
	"morphing/internal/canon"
	"morphing/internal/costmodel"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/obs"
	"morphing/internal/pattern"
	"morphing/internal/plan"
)

// Runner glues the Subgraph Morphing pipeline of Fig. 5 to a matching
// engine: pattern transformation → mining → result transformation. A
// zero-value Runner with an Engine is usable; Morph defaults to enabled
// morphing and can be cleared for baseline measurements.
type Runner struct {
	// Engine executes the matching phase.
	Engine engine.Engine
	// DisableMorphing runs queries as-is (the baseline).
	DisableMorphing bool
	// PerMatchCost is the aggregation's estimated per-match work fed to
	// the cost model (0 for system-native counting; see
	// costmodel.ProfileUDF for UDF-derived values).
	PerMatchCost float64
	// RunOptions tunes execution of the selected alternatives (as opposed
	// to their selection), currently shard-per-partition counting.
	RunOptions RunOptions
	// Explain records why the run did what it did and changes nothing
	// about what it does: selection keeps its Algorithm 1 trace
	// (Selection.Explain), choices are annotated with the cost model's
	// predictions, and RunStats.PerPattern pairs each prediction with the
	// exact count its alternative got from the run's own mining pass (the
	// calibration data). There is no per-pattern wall time: the set is one
	// merged pass, and a pattern's share of it is not a quantity.
	Explain bool
	// Obs is the observability sink: each run's lifecycle events go to
	// its event log and the run's totals to its registry. nil falls back
	// to obs.Default().
	Obs *obs.Observer
	// Label tags this runner's executions in the query log, run reports
	// and flight-recorder dumps (conventionally the app name: "sc",
	// "mc", "fsm", "se").
	Label string
	// Flight configures the per-run flight recorder (dump directory,
	// slow-query threshold). nil uses obs.DefaultFlightPolicy, whose dump
	// directory comes from MORPH_FLIGHT_DIR.
	Flight *obs.FlightPolicy
}

// RunOptions tunes how the runner executes the selected alternatives.
type RunOptions struct {
	// Shards > 1 enables shard-per-partition counting (§7.4): the graph
	// is split into Shards BFS-grown partitions, each shard is
	// materialized as a plain in-RAM subgraph and mined on its own, and
	// the per-alternative counts are summed before conversion. Because
	// conversion is a fixed linear combination of the alternative
	// counts, summing before converting equals converting per shard and
	// summing after — so the aggregation layer needs no changes.
	//
	// Cross-partition edges are dropped, exactly as in the paper's
	// workload-reduction experiment: sharded counts are counts over the
	// union of the induced shard subgraphs, a lower bound on the
	// full-graph counts, not an approximation of them. Use it when the
	// working set of a full-graph run exceeds memory (pair with a
	// compressed or mmap-backed source tier; peak residency is then the
	// source tier plus one plain shard).
	//
	// Sharded runs skip Runner.Explain's PerPattern table: the cost
	// model's predictions are for the whole graph, the summed shard counts
	// are of a graph with its cross-partition edges dropped.
	Shards int
}

// TrieDecision records the mining phase's one pass of the winner set's
// merged plan trie — counting or, for the MNI and enumeration pipelines,
// streaming — with the trie's sharing statistics. Every engine plans, so
// Used is false only for an empty set, which mines nothing.
type TrieDecision struct {
	Used   bool   `json:"used"`
	Reason string `json:"reason"`

	Patterns        int `json:"patterns,omitempty"`
	Nodes           int `json:"nodes,omitempty"`
	SharedLevels    int `json:"shared_levels,omitempty"`
	MaxSharedPrefix int `json:"max_shared_prefix,omitempty"`
}

// Pipeline phase names recorded in RunStats.Phase: the stage a run last
// entered, so an interrupted run reports exactly where it stopped.
const (
	PhaseTransform = "transform"
	PhaseMine      = "mine"
	PhaseConvert   = "convert"
	PhaseDone      = "done"
)

// PartialCount is one alternative pattern's mined progress at the moment
// a run was interrupted.
type PartialCount struct {
	Pattern *pattern.Pattern
	Count   uint64
}

// RunStats reports where the time of a morphed execution went, matching
// the paper's claim that transformation time is negligible (§7,
// "transforming patterns of size 4 and 5 took at most 0.7ms and 7.2ms"),
// plus per-phase progress for interrupted runs.
type RunStats struct {
	Transform time.Duration // S-DAG build + Algorithm 1
	Mining    *engine.Stats // matching phase, summed over alternatives
	Convert   time.Duration // result transformation
	Selection *Selection    // the chosen alternative set

	// Engine and the graph dimensions identify what the run executed
	// against, so a RunStats (and the reports built from it) is
	// self-describing.
	Engine        string
	GraphVertices int
	GraphEdges    uint64

	// PerPattern pairs each executed alternative's cost-model predictions
	// with its measured results, one entry per Selection.Mine choice.
	// Filled only under Runner.Explain, from the counts of the run's own
	// mining pass.
	PerPattern []PatternRunStats

	// Phase is the pipeline stage the run last entered (Phase*
	// constants); PhaseDone after a complete run.
	Phase string
	// Partial holds per-alternative mined counts when the run was
	// interrupted during mining (typed engine error); nil otherwise.
	// Converting an incomplete mined set is unsound, so interrupted runs
	// surface raw per-alternative progress instead of query results.
	Partial []PartialCount
	// Trie records the one-pass trie routing decision of the mining phase.
	Trie *TrieDecision
	// Shards is the number of partitions a sharded counting run actually
	// mined (RunOptions.Shards requested, empty partitions omitted);
	// 0 for unsharded runs.
	Shards int

	// Decode is this run's storage-tier decode attribution: rows/blocks
	// decoded and probe-block cache activity by this run's views only,
	// independent of concurrent queries, and exact: the runner drains every
	// view's unflushed residue once mining has joined its workers. Nil when
	// the tier decodes nothing (plain CSR).
	Decode *graph.DecodeStats
	// Residency is the page-cache residency of the graph's mmap backing
	// sampled at run end (mincore); nil when the tier is not mmap-backed
	// or the platform cannot sample.
	Residency *graph.ResidencyStats

	// RunID is the unique identifier of this execution's run scope;
	// every lifecycle event and query-log line the run emitted carries it.
	RunID string
	// RunLabel is the Runner.Label the run executed under.
	RunLabel string
	// Events is the run's retained lifecycle event ring (admitted,
	// decisions, terminal), oldest first.
	Events []obs.Event
	// FlightDump is the flight-recorder bundle directory when the run
	// ended anomalously and a dump was written; "" otherwise.
	FlightDump string
}

// PatternRunStats is the calibration record for one executed alternative
// pattern: what the §5.2 cost model predicted next to what the engine
// measured. EstCost is the pattern's marginal price inside the mined set
// (Selection.CostAfter is the set's).
type PatternRunStats struct {
	Pattern    string  `json:"pattern"`
	Variant    string  `json:"variant"`
	EstCost    float64 `json:"est_cost"`
	EstMatches float64 `json:"est_matches"`
	Matches    uint64  `json:"matches"`
}

// CalibrationRatio returns predicted/measured matches, add-one smoothed
// so the ratio stays finite even when either side is zero: a
// well-calibrated model hovers near 1, systematic over-estimation sits
// above it. Reports aggregate the log-distribution of these.
func (p PatternRunStats) CalibrationRatio() float64 {
	return (p.EstMatches + 1) / (float64(p.Matches) + 1)
}

// policyFor derives the variant policy from aggregation algebra and
// engine capability (§4.4).
func (r *Runner) policyFor(agg aggr.Aggregation) (Policy, error) {
	_, invertible := agg.(aggr.Invertible)
	supportsV := r.Engine.SupportsInduced(pattern.VertexInduced)
	switch {
	case invertible && supportsV:
		return PolicyAny, nil
	case invertible:
		return PolicyEdgeOnly, nil
	case supportsV:
		return PolicyVertexOnly, nil
	default:
		return 0, fmt.Errorf("core: aggregation %q is not invertible and engine %q cannot mine vertex-induced patterns: no sound morphing direction", agg.Name(), r.Engine.Name())
	}
}

// execute runs body as one pipeline execution of r — the lifecycle
// CountsCtx, MNITablesCtx and StreamCtx share. It opens the
// run scope (startRun), hands body a context carrying it and g wrapped for
// storage attribution, runs body under containFaults, and stamps the
// storage counters and the terminal event into the RunStats body returns
// (finishRun, which also publishes them on success). body returns nil
// RunStats for a failure that is not an interruption.
func execute[T any](ctx context.Context, r *Runner, g graph.Adjacency, pipeline string, queries int, body func(context.Context, *obs.RunContext, graph.Adjacency) (T, *RunStats, error)) (T, *RunStats, error) {
	rc, ctx := r.startRun(ctx, pipeline, queries)
	ag, sink := attributeStorage(g)
	out, st, err := containFaults(func() (T, *RunStats, error) { return body(ctx, rc, ag) })
	stampStorage(rc, st, g, sink)
	r.finishRun(rc, st, err)
	return out, st, err
}

// startRun opens the per-query run scope: the run ID and its lifecycle
// event stream. The returned context carries the scope so every layer
// below — selection, conversion, the engines, the trie executor —
// resolves it via obs.FromContext without signature changes.
func (r *Runner) startRun(ctx context.Context, pipeline string, queries int) (*obs.RunContext, context.Context) {
	policy := obs.DefaultFlightPolicy()
	if r.Flight != nil {
		policy = *r.Flight
	}
	rc := obs.StartRun(r.Obs, r.Label, policy)
	rc.Event("admitted",
		obs.Str("engine", r.Engine.Name()), obs.Str("pipeline", pipeline),
		obs.Int("queries", queries), obs.Bool("morph", !r.DisableMorphing))
	return rc, obs.ContextWithRun(ctx, rc)
}

// finishRun emits the run's terminal query-log event, classifies the
// ending against the flight policy (dumping the recorder on anomaly),
// and stamps the run identity into st. It is the single exit point of
// every pipeline: success, interruption, and failure all pass through.
func (r *Runner) finishRun(rc *obs.RunContext, st *RunStats, err error) {
	kind := runErrKind(err)
	out := obs.RunOutcome{ErrKind: kind}
	if err != nil {
		out.Err = err.Error()
	}
	name := "completed"
	attrs := []obs.Attr{obs.Str("wall", rc.Wall().String())}
	if st != nil {
		attrs = append(attrs, obs.Str("phase", st.Phase))
		if len(st.PerPattern) > 0 {
			out.Calibration = st.MeanCalibrationRatio()
			attrs = append(attrs, obs.F64("calibration_ratio", out.Calibration))
		}
		if st.Mining != nil {
			attrs = append(attrs, obs.U64("matches", st.Mining.Matches))
		}
		for _, pc := range st.Partial {
			attrs = append(attrs, obs.U64("partial/"+pc.Pattern.String(), pc.Count))
		}
	}
	switch kind {
	case "":
	case "error":
		name = "failed"
		attrs = append(attrs, obs.Str("error", out.Err))
	default:
		name = "interrupted"
		attrs = append(attrs, obs.Str("kind", kind), obs.Str("error", out.Err))
		rc.Observer().Counter(MetricInterrupted).Inc(0)
	}
	rc.Event(name, attrs...)
	dump := rc.Finish(out)
	if st != nil {
		st.RunID = rc.ID()
		st.RunLabel = rc.Label()
		st.Events = rc.Events()
		st.FlightDump = dump
		if err == nil {
			publishRunStats(rc.Observer(), st)
		}
	}
}

// attributeStorage prepares a run's storage-tier attribution scope: the
// decoding tier is wrapped so every view the engines create routes its
// decode counters into a fresh per-run sink. Tiers that decode nothing
// pass through with a nil sink.
func attributeStorage(g graph.Adjacency) (graph.Adjacency, *graph.DecodeCounters) {
	if _, decodes := g.(*graph.CompressedGraph); !decodes {
		return g, nil
	}
	sink := &graph.DecodeCounters{}
	return graph.WithDecodeAttribution(g, sink), sink
}

// containFaults runs a pipeline body on the caller's goroutine under
// debug.SetPanicOnFault, so the reads it makes of an mmap-backed graph
// outside the executor's workers — the summary, shard extraction, the
// first view's hot-row build — end, when the file changed under them, in
// the *engine.PanicError wrapping graph.ErrMappingFault that a worker
// reports for the same fault. Any other panic propagates.
func containFaults[T any](body func() (T, *RunStats, error)) (out T, st *RunStats, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			ferr := graph.MappingFault(r)
			if ferr == nil {
				panic(r)
			}
			err = &engine.PanicError{Worker: -1, Value: ferr, Stack: debug.Stack()}
		}
	}()
	return body()
}

// stampStorage records the run's storage-tier activity at run end: the
// per-run decode counters and (for mmap-backed tiers) a point-in-time
// page-residency sample land in st, in the registry's graph_* totals, and
// in the query log as a "storage" event.
func stampStorage(rc *obs.RunContext, st *RunStats, g graph.Adjacency, sink *graph.DecodeCounters) {
	if st == nil {
		return
	}
	o := rc.Observer()
	var attrs []obs.Attr
	if sink != nil {
		// Mining has joined its workers by the time a pipeline returns, so
		// draining the views' sub-batch residues here is safe and makes the
		// attribution exact even for runs far below the batch threshold.
		sink.Drain()
		ds := sink.Stats()
		st.Decode = &ds
		o.Counter(MetricDecodeRows).Add(0, ds.Rows)
		o.Counter(MetricDecodeBlocks).Add(0, ds.Blocks)
		o.Counter(MetricDecodeElems).Add(0, ds.Elems)
		o.Counter(MetricProbeHits).Add(0, ds.ProbeHits)
		o.Counter(MetricProbeMisses).Add(0, ds.ProbeMisses)
		attrs = append(attrs,
			obs.U64("decode_rows", ds.Rows), obs.U64("decode_blocks", ds.Blocks),
			obs.U64("decode_bytes", ds.DecodedBytes()),
			obs.U64("probe_hits", ds.ProbeHits), obs.U64("probe_misses", ds.ProbeMisses))
	}
	if rg, ok := g.(interface{ Residency() graph.ResidencyStats }); ok {
		if rs := rg.Residency(); rs.Sampled {
			st.Residency = &rs
			o.Gauge(GaugeMmapResident).Set(float64(rs.ResidentBytes))
			o.Gauge(GaugeMmapMapped).Set(float64(rs.MappedBytes))
			attrs = append(attrs,
				obs.U64("mmap_resident_bytes", rs.ResidentBytes),
				obs.U64("mmap_mapped_bytes", rs.MappedBytes))
		}
	}
	if len(attrs) > 0 {
		rc.Event("storage", attrs...)
	}
}

// runErrKind classifies a pipeline error for the query log and the
// flight recorder: "" (success), "canceled", "deadline", "panic" for the
// typed interruptions, "error" otherwise.
func runErrKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, engine.ErrCanceled):
		return "canceled"
	case errors.Is(err, engine.ErrDeadlineExceeded):
		return "deadline"
	}
	var pe *engine.PanicError
	if errors.As(err, &pe) {
		return "panic"
	}
	return "error"
}

// MeanCalibrationRatio averages the per-pattern calibration ratios (0
// when the run carried no calibration records).
func (st *RunStats) MeanCalibrationRatio() float64 {
	if len(st.PerPattern) == 0 {
		return 0
	}
	var sum float64
	for _, pp := range st.PerPattern {
		sum += pp.CalibrationRatio()
	}
	return sum / float64(len(st.PerPattern))
}

// Transform runs pattern transformation for a query set: S-DAG build plus
// Algorithm 1 under the policy derived for agg. It is the one context-free
// twin left below the root package: the repository benchmark's replay
// (benchmark/batch.go) times this spelling.
func (r *Runner) Transform(g graph.Adjacency, queries []*pattern.Pattern, agg aggr.Aggregation) (*Selection, error) {
	return r.transformCtx(context.Background(), g, queries, agg)
}

// transformCtx is Transform with cancellation: the S-DAG expansion and
// Algorithm 1 poll ctx.
func (r *Runner) transformCtx(ctx context.Context, g graph.Adjacency, queries []*pattern.Pattern, agg aggr.Aggregation) (*Selection, error) {
	policy, err := r.policyFor(agg)
	if err != nil {
		return nil, err
	}
	return r.transformPolicy(ctx, g, queries, policy)
}

// transformPolicy runs pattern transformation under a given variant
// policy.
func (r *Runner) transformPolicy(ctx context.Context, g graph.Adjacency, queries []*pattern.Pattern, policy Policy) (*Selection, error) {
	if r.DisableMorphing {
		if policy == PolicyEdgeOnly {
			for _, q := range queries {
				if q.Induced() == pattern.VertexInduced && !q.IsClique() {
					return nil, fmt.Errorf("core: vertex-induced query %v cannot run under an edge-only engine without morphing; use a Filter UDF baseline instead", q)
				}
			}
		}
		sel, err := IdentitySelection(queries)
		if err == nil && r.Explain {
			sel.AnnotateEstimates(costmodel.NewDefault(graph.Summarize(g)), r.PerMatchCost)
		}
		return sel, err
	}
	d, err := BuildSDAG(queries)
	if err != nil {
		return nil, err
	}
	model := costmodel.NewDefault(graph.Summarize(g))
	sel, err := Select(ctx, d, queries, DefaultCostFunc(model, r.PerMatchCost), policy, SelectOptions{Explain: r.Explain})
	if err != nil {
		return nil, err
	}
	if r.Explain {
		sel.AnnotateEstimates(model, r.PerMatchCost)
	}
	return sel, nil
}

// Registry metric names published by the runner, one set per pipeline
// execution; DESIGN §11 names each one's consumer.
const (
	MetricRuns        = "run_total"
	MetricTransformNS = "run_transform_time_ns_total"
	MetricConvertNS   = "run_convert_time_ns_total"
	// MetricInterrupted counts pipeline executions that ended early on a
	// typed interruption (cancel, deadline, contained panic); such runs
	// do not increment MetricRuns.
	MetricInterrupted = "run_interrupted_total"

	// Storage-tier attribution counters: decode work and probe-block
	// cache activity, published per run from the run's own DecodeCounters
	// scope (so the process totals are the sum over runs). The mmap gauges
	// snapshot the last sampled residency.
	MetricDecodeRows   = "graph_decode_rows_total"
	MetricDecodeBlocks = "graph_decode_blocks_total"
	MetricDecodeElems  = "graph_decode_elems_total"
	MetricProbeHits    = "graph_probe_block_hits_total"
	MetricProbeMisses  = "graph_probe_block_misses_total"
	GaugeMmapResident  = "graph_mmap_resident_bytes"
	GaugeMmapMapped    = "graph_mmap_mapped_bytes"
)

// publishRunStats routes a completed pipeline execution's RunStats into
// the observer's registry (the engine publishes the Mining leg itself).
func publishRunStats(o *obs.Observer, st *RunStats) {
	o.Counter(MetricRuns).Inc(0)
	o.Counter(MetricTransformNS).Add(0, uint64(st.Transform))
	o.Counter(MetricConvertNS).Add(0, uint64(st.Convert))
}

// CountsCtx answers subgraph counting queries (SC/MC): the count of each
// query pattern, computed through morphing unless disabled. Cancellation
// and deadlines take effect at the engines' next poll point; an interrupted run
// returns a nil result slice, a typed error (engine.ErrCanceled /
// engine.ErrDeadlineExceeded / *engine.PanicError) and a RunStats whose
// Phase and Partial fields report exactly how far the run got (PhaseTransform
// and no Partial when it never reached mining) — the per-alternative partial
// counts cannot be soundly converted into query results, so they are
// surfaced raw instead.
func (r *Runner) CountsCtx(ctx context.Context, g graph.Adjacency, queries []*pattern.Pattern) ([]uint64, *RunStats, error) {
	return execute(ctx, r, g, "counts", len(queries), func(ctx context.Context, rc *obs.RunContext, g graph.Adjacency) ([]uint64, *RunStats, error) {
		return r.countsRun(ctx, rc, g, queries)
	})
}

// countsRun is the CountsCtx body, executed inside the run scope rc (the
// ctx already carries it).
func (r *Runner) countsRun(ctx context.Context, rc *obs.RunContext, g graph.Adjacency, queries []*pattern.Pattern) ([]uint64, *RunStats, error) {
	agg := aggr.Count{}
	policy, err := r.policyFor(agg)
	if err != nil {
		return nil, nil, err
	}
	sel, stats, err := r.transformRun(ctx, rc, g, queries, policy)
	if err != nil {
		return nil, stats, err
	}

	stats.Phase = PhaseMine
	counts, err := r.mine(ctx, g, sel.Mine, nil, stats)
	if err != nil {
		if engine.Interrupted(err) {
			return nil, stats, err
		}
		return nil, nil, err
	}
	out, err := convertRun(sel, agg, counts, stats)
	if err != nil {
		return nil, nil, err
	}
	return out, stats, nil
}

// transformRun opens every pipeline: the run's RunStats, then pattern
// transformation under policy and its "transformed" event. A run
// interrupted before or during transformation returns its RunStats in
// PhaseTransform, without a Selection; any other failure returns none.
func (r *Runner) transformRun(ctx context.Context, rc *obs.RunContext, g graph.Adjacency, queries []*pattern.Pattern, policy Policy) (*Selection, *RunStats, error) {
	t0 := time.Now()
	stats := &RunStats{Phase: PhaseTransform,
		Engine: r.Engine.Name(), GraphVertices: g.NumVertices(), GraphEdges: g.NumEdges()}
	err := engine.CtxErr(ctx)
	var sel *Selection
	if err == nil {
		sel, err = r.transformPolicy(ctx, g, queries, policy)
	}
	if engine.Interrupted(err) {
		return nil, stats, err
	} else if err != nil {
		return nil, nil, err
	}
	stats.Selection, stats.Transform = sel, time.Since(t0)
	attrs := []obs.Attr{
		obs.Int("mine_patterns", len(sel.Mine)), obs.Int("queries", len(sel.Queries)),
		obs.F64("cost_before", sel.CostBefore), obs.F64("cost_after", sel.CostAfter)}
	if sel.SDAG != nil {
		attrs = append(attrs, obs.Int("sdag_nodes", sel.SDAG.Materialized()))
	}
	rc.Event("transformed", attrs...)
	return sel, stats, nil
}

// convertRun closes every aggregation pipeline: Algorithm 2 turns the
// mined alternatives' values (one per Selection.Mine choice) into one
// value per query, and stats records the time and the finished run.
func convertRun[T aggr.Value](sel *Selection, agg aggr.Aggregation, mined []T, stats *RunStats) ([]T, error) {
	stats.Phase = PhaseConvert
	t1 := time.Now()
	in := make([]aggr.Value, len(mined))
	for i, v := range mined {
		in[i] = v
	}
	vals, err := sel.Convert(agg, in)
	if err != nil {
		return nil, err
	}
	out := make([]T, len(vals))
	for i, v := range vals {
		out[i] = v.(T)
	}
	stats.Convert = time.Since(t1)
	stats.Phase = PhaseDone
	return out, nil
}

// patternsOf lists the patterns a winner set mines, in Mine order.
func patternsOf(mine []Choice) []*pattern.Pattern {
	ps := make([]*pattern.Pattern, len(mine))
	for i, c := range mine {
		ps[i] = c.Pattern
	}
	return ps
}

// measured pairs the choice's predictions with the matches mining it found.
func (c Choice) measured(matches uint64) PatternRunStats {
	return PatternRunStats{
		Pattern:    c.Pattern.String(),
		Variant:    variantString(c.Variant),
		EstCost:    c.EstCost,
		EstMatches: c.EstMatches,
		Matches:    matches,
	}
}

// planTrie merges the engine's plans for a run's winner set and reports
// the decision (and the trie's sharing statistics). tr is nil exactly for
// an empty set; an engine that cannot plan the set fails the run with its
// own error.
func (r *Runner) planTrie(g graph.Adjacency, ps []*pattern.Pattern) (*TrieDecision, *plan.Trie, error) {
	dec := &TrieDecision{}
	if len(ps) == 0 {
		dec.Reason = "empty pattern set"
		return dec, nil, nil
	}
	tr, err := engine.BuildTrie(r.Engine, g, ps)
	if err != nil {
		return nil, nil, err
	}
	dec.Used = true
	dec.Patterns = len(ps)
	dec.Nodes = tr.Nodes
	dec.SharedLevels = tr.SharedLevels
	dec.MaxSharedPrefix = tr.MaxSharedPrefix
	dec.Reason = fmt.Sprintf("%d patterns in one pass: %d trie nodes, %d shared levels, max shared prefix %d",
		len(ps), tr.Nodes, tr.SharedLevels, tr.MaxSharedPrefix)
	return dec, tr, nil
}

// mine is the mining phase of every pipeline and the only code that
// reaches the executor: it mines choices[i].Pattern on g — streaming each
// match to sinks[i], or counting when sinks is nil — and returns one
// count per choice. The set is one pass over the engine's merged trie (one
// per shard under RunOptions.Shards, which applies to counting only).
// Explain changes nothing here but the bookkeeping: PerPattern pairs each
// choice's predictions with its count from that same execution (sharded
// runs skip it, see RunOptions.Shards).
//
// stats receives Trie (logged as the trie_decision event when ctx carries a
// run scope), Mining and, on a typed interruption, Partial — one count per
// choice: a merged pass interrupts every plan at once.
func (r *Runner) mine(ctx context.Context, g graph.Adjacency, choices []Choice, sinks []engine.Sink, stats *RunStats) ([]uint64, error) {
	dec, tr, err := r.planTrie(g, patternsOf(choices))
	if err != nil {
		return nil, err
	}
	stats.Trie = dec
	obs.RunFrom(ctx).Event("trie_decision", obs.Bool("used", dec.Used), obs.Str("reason", dec.Reason))
	if tr == nil {
		stats.Mining = &engine.Stats{}
		return nil, nil
	}

	// pass is one execution of the set over sg: the whole graph or a shard.
	opts, eo := r.Engine.ExecConfig()
	pass := func(sg graph.Adjacency) ([]uint64, *engine.Stats, error) {
		return engine.MatchTrieCtx(ctx, sg, tr, sinks, opts, eo)
	}

	var counts []uint64
	sharded := r.RunOptions.Shards > 1 && sinks == nil
	if sharded {
		counts, err = r.mineSharded(ctx, g, len(choices), pass, stats)
	} else {
		var st *engine.Stats
		counts, st, err = pass(g)
		// Clone: the snapshot in RunStats must not alias a struct the
		// engine may keep touching (see the single-merger invariant on
		// engine.Stats).
		stats.Mining = st.Clone()
	}
	if err != nil && !engine.Interrupted(err) {
		return nil, err
	}
	for i, c := range choices {
		if r.Explain && !sharded {
			stats.PerPattern = append(stats.PerPattern, c.measured(counts[i]))
		}
		if err != nil {
			stats.Partial = append(stats.Partial, PartialCount{Pattern: c.Pattern, Count: counts[i]})
		}
	}
	return counts, err
}

// mineSharded executes RunOptions.Shards-way shard-per-partition
// counting (§7.4 drop-cross-edges semantics; see the field doc for the
// soundness argument): pass, mine's one execution of the set, once per
// shard. The partition member lists are computed once, but each shard
// subgraph is materialized only for the duration of its own pass, so peak
// residency is the source tier plus one plain shard. The plan trie was
// built once on the full graph and is reused for every shard: a plan trie
// encodes only pattern-level structure, so it executes unchanged against
// any graph, and the full-graph cost model is the best available ordering
// heuristic for its shards. stats.Mining accumulates across shards
// (freshly built accumulator, never aliasing engine-owned memory). On a
// typed interruption the returned counts hold the progress so far.
func (r *Runner) mineSharded(ctx context.Context, g graph.Adjacency, n int, pass func(graph.Adjacency) ([]uint64, *engine.Stats, error), stats *RunStats) ([]uint64, error) {
	rc := obs.RunFrom(ctx)
	parts, err := graph.PartitionMembers(g, r.RunOptions.Shards)
	if err != nil {
		return nil, err
	}
	stats.Shards = len(parts)
	rc.Event("sharded",
		obs.Int("requested", r.RunOptions.Shards), obs.Int("shards", len(parts)),
		obs.Bool("trie", stats.Trie.Used))
	counts := make([]uint64, n)
	acc := &engine.Stats{}
	stats.Mining = acc
	gv := g.View()
	for si, members := range parts {
		sg, err := graph.SubgraphOf(gv, members)
		if err != nil {
			return nil, err
		}
		sc, st, err := pass(sg)
		if st != nil {
			acc.Add(st)
		}
		for i := range sc {
			counts[i] += sc[i]
		}
		rc.Event("shard_mined", obs.Int("shard", si),
			obs.Int("vertices", sg.NumVertices()), obs.Int("edges", int(sg.NumEdges())))
		if err != nil {
			return counts, err
		}
	}
	return counts, nil
}

// MNITablesCtx answers FSM-style support queries: the full-MNI table of
// each query pattern (every embedding inserted, Bringmann-Nijssen
// semantics). Morphing uses the additive direction only
// (PolicyVertexOnly), and results are converted batched (Algorithm 2):
// every mined alternative fills a table of its own, and Selection.Convert
// combines those into the query tables. A table is a compressed bitmap
// per pattern vertex, at most n·|V| bits, however many matches feed it.
// Interrupted runs follow the same partial-result contract as CountsCtx.
func (r *Runner) MNITablesCtx(ctx context.Context, g graph.Adjacency, queries []*pattern.Pattern) ([]*aggr.Table, *RunStats, error) {
	return execute(ctx, r, g, "mni", len(queries), func(ctx context.Context, rc *obs.RunContext, g graph.Adjacency) ([]*aggr.Table, *RunStats, error) {
		return r.mniRun(ctx, rc, g, queries)
	})
}

// mniRun is the MNITablesCtx body, executed inside the run scope rc. The
// winner set is streamed through mine in one pass, so an FSM level
// enumerates its candidates' shared labeled prefixes once, and every match
// lands in the sink of the alternative it matched, a settled window at a
// time.
func (r *Runner) mniRun(ctx context.Context, rc *obs.RunContext, g graph.Adjacency, queries []*pattern.Pattern) ([]*aggr.Table, *RunStats, error) {
	agg := aggr.MNI{}
	policy, err := r.policyFor(agg)
	if err != nil {
		return nil, nil, err
	}
	sel, stats, err := r.transformRun(ctx, rc, g, queries, policy)
	if err != nil {
		return nil, stats, err
	}
	sinks := make([]*mniSink, len(sel.Mine))
	streams := make([]engine.Sink, len(sel.Mine))
	for i, c := range sel.Mine {
		sinks[i] = &mniSink{width: c.Pattern.N()}
		streams[i] = sinks[i].bind
	}

	stats.Phase = PhaseMine
	if _, err = r.mine(ctx, g, sel.Mine, streams, stats); err != nil {
		if engine.Interrupted(err) {
			return nil, stats, err
		}
		return nil, nil, err
	}
	// The per-worker merge is the UDF-side aggregation leg of mining.
	mined := make([]*aggr.Table, len(sinks))
	for i, c := range sel.Mine {
		mined[i] = sinks[i].table(canon.Automorphisms(c.Pattern))
	}

	out, err := convertRun(sel, agg, mined, stats)
	if err != nil {
		return nil, nil, err
	}
	return out, stats, nil
}

// StreamCtx answers match-stream queries (subgraph enumeration, §7.3) as
// one pipeline execution: pattern transformation in the additive direction
// (PolicyVertexOnly: a stream cannot be subtracted), then one mining pass in
// which every alternative that feeds a query streams to sink(its
// targets) — Algorithm 3's on-the-fly conversion is the sink's, through
// each target's maps. A query mined as itself gets the identity map, so it
// receives the engine's own tuples. With morphing disabled every query is
// mined as itself (a query listed twice is mined once and feeds both);
// morphing needs an engine that mines vertex-induced patterns. Interrupted
// runs follow CountsCtx's contract: the RunStats reports Phase and Partial,
// and every match counted was delivered.
func (r *Runner) StreamCtx(ctx context.Context, g graph.Adjacency, queries []*pattern.Pattern, sink func(targets []StreamTarget) engine.Sink) (*RunStats, error) {
	_, st, err := execute(ctx, r, g, "enumerate", len(queries), func(ctx context.Context, rc *obs.RunContext, g graph.Adjacency) (struct{}, *RunStats, error) {
		st, err := r.streamRun(ctx, rc, g, queries, sink)
		return struct{}{}, st, err
	})
	return st, err
}

// streamRun is the StreamCtx body, executed inside the run scope rc.
func (r *Runner) streamRun(ctx context.Context, rc *obs.RunContext, g graph.Adjacency, queries []*pattern.Pattern, sink func([]StreamTarget) engine.Sink) (*RunStats, error) {
	if !r.DisableMorphing && !r.Engine.SupportsInduced(pattern.VertexInduced) {
		return nil, fmt.Errorf("core: engine %q cannot mine vertex-induced patterns; on-the-fly conversion unavailable", r.Engine.Name())
	}
	sel, stats, err := r.transformRun(ctx, rc, g, queries, PolicyVertexOnly)
	if err != nil {
		return stats, err
	}
	targets, err := sel.StreamPlan()
	if err != nil {
		return nil, err
	}
	var mine []Choice
	var sinks []engine.Sink
	for ci, c := range sel.Mine {
		if len(targets[ci]) > 0 { // else mined for other outputs only
			mine = append(mine, c)
			sinks = append(sinks, sink(targets[ci]))
		}
	}
	stats.Phase = PhaseMine
	if _, err = r.mine(ctx, g, mine, sinks, stats); err != nil {
		if engine.Interrupted(err) {
			return stats, err
		}
		return nil, err
	}
	stats.Phase = PhaseDone
	return stats, nil
}

// AdmissionEstimate is what the cost model predicts a query will do
// before any mining happens: the serving layer's admission-control input.
type AdmissionEstimate struct {
	// MatchBytes is the estimated bytes of the winner set's matches, were
	// they materialized: the match-volume proxy admission control meters.
	// No pipeline materializes them.
	MatchBytes uint64 `json:"match_bytes"`
	// Cost is the modeled price of the winner set after selection, mined
	// as one merged trie — shared levels once (Selection.CostAfter; §5.2
	// units) —, not a sum over its patterns.
	Cost float64 `json:"cost"`
	// MinePatterns is how many alternative patterns the winner set mines.
	MinePatterns int `json:"mine_patterns"`
}

// EstimateAdmission runs pattern transformation only — S-DAG build plus
// Algorithm 1, no mining — and returns the cost model's predictions for
// the resulting winner set. This is the admission-control hook a serving
// layer calls before committing a worker to the query: transform time is
// negligible next to mining (§7), so estimating costs little, and the
// full pipeline re-derives the same selection deterministically when the
// query is admitted. agg chooses the policy direction exactly as the real
// pipeline would (aggr.Count for counting, aggr.MNI for FSM support).
func (r *Runner) EstimateAdmission(ctx context.Context, g graph.Adjacency, queries []*pattern.Pattern, agg aggr.Aggregation) (AdmissionEstimate, error) {
	sel, err := r.transformCtx(ctx, g, queries, agg)
	if err != nil {
		return AdmissionEstimate{}, err
	}
	return AdmissionEstimate{
		MatchBytes:   r.estimateMatchBytes(g, sel),
		Cost:         sel.CostAfter,
		MinePatterns: len(sel.Mine),
	}, nil
}

// estimateMatchBytes is the cost model's match volume for the set
// selection chose, in bytes: expected matches per alternative times the
// pattern's vertices times 4 (uint32 vertex IDs), summed per pattern —
// matches are never shared, unlike the set's price (Selection.CostAfter).
// The model estimates over the graph's dense portion, so this is a
// relative proxy (compare it against an admission budget in the same
// units).
func (r *Runner) estimateMatchBytes(g graph.Adjacency, sel *Selection) uint64 {
	model := costmodel.NewDefault(graph.Summarize(g))
	total := 0.0
	for _, c := range sel.Mine {
		_, aut, err := plan.BuildAut(c.Pattern)
		if err != nil {
			continue // not a connected pattern: nothing the engine would mine
		}
		total += model.MatchEstimate(c.Pattern, aut) * float64(c.Pattern.N()) * 4
	}
	return clampBytes(total)
}

// clampBytes turns the model's float byte estimate into the integer that
// budgets are compared against, failing closed: an estimate that is not a
// finite non-negative number (NaN, negative, +Inf, beyond uint64) is the
// largest value there is, so it exceeds every budget instead of passing as
// free; a fractional one rounds up.
func clampBytes(total float64) uint64 {
	if !(total >= 0 && total < math.MaxUint64) {
		return math.MaxUint64
	}
	return uint64(math.Ceil(total))
}

// MineMNITable streams one pattern's matches into a full MNI table (see
// mniSink) on the one-leaf trie of eng's plan, one Table.Insert per match:
// the per-pattern reference the merged route's InsertTail is tested against.
func MineMNITable(ctx context.Context, eng engine.Engine, g graph.Adjacency, p *pattern.Pattern) (*aggr.Table, *engine.Stats, error) {
	pl, err := eng.PlanPattern(g, p)
	if err != nil {
		return nil, nil, err
	}
	sink := &mniSink{width: p.N()}
	opts, o := eng.ExecConfig()
	_, st, err := engine.BacktrackCtx(ctx, g, pl, func(int) engine.Window {
		t := sink.add()
		return func(m []uint32, pos int, tail []uint32) {
			for _, v := range tail {
				m[pos] = v
				t.Insert(m)
			}
		}
	}, opts, o)
	if err != nil {
		return nil, st, err
	}
	return sink.table(canon.Automorphisms(p)), st, nil
}
