package engine

import (
	"errors"
	"fmt"

	"morphing/internal/obs"
)

// Registry metric names shared by every engine model. Counters are
// cumulative over the process lifetime (Prometheus convention); the
// per-execution snapshot remains the Stats struct.
const (
	// MetricMatches is streamed live: executors flush each worker's match
	// delta at block granularity so progress reporters and the HTTP
	// endpoint see movement mid-run. publishStats therefore excludes it.
	MetricMatches = "engine_matches_total"

	MetricSetOps       = "engine_set_ops_total"
	MetricSetElems     = "engine_set_elems_total"
	MetricMaterialized = "engine_materialized_total"
	MetricUDFCalls     = "engine_udf_calls_total"
	MetricBranches     = "engine_branches_total"

	// Kernel path breakdown: which adaptive path (merge, unrolled, gallop,
	// hub bitset, count-only) served each set operation, and how many
	// elements were written to destination slices. The five path counters
	// partition MetricSetOps; MetricSetWritten staying flat while
	// matching counts proves the last level ran without materialization.
	MetricSetMergeOps    = "engine_set_merge_ops_total"
	MetricSetGallopOps   = "engine_set_gallop_ops_total"
	MetricSetBitsetOps   = "engine_set_bitset_ops_total"
	MetricSetCountOps    = "engine_set_countonly_ops_total"
	MetricSetUnrolledOps = "engine_set_unrolled_ops_total"
	MetricSetWritten     = "engine_set_written_elems_total"

	MetricSetOpTimeNS       = "engine_setop_time_ns_total"
	MetricMaterializeTimeNS = "engine_materialize_time_ns_total"
	MetricUDFTimeNS         = "engine_udf_time_ns_total"
	MetricRunTimeNS         = "engine_run_time_ns_total"

	// MetricMineDurationNS is a log-scale histogram of per-execution
	// wall-clock, one observation per Count/Match/CountAll.
	MetricMineDurationNS = "engine_mine_duration_ns"

	// Per-worker skew histograms: one observation per worker per
	// execution. A wide spread between p50 and p99 of
	// MetricWorkerTimeNS is load skew; a lone top-bucket observation is
	// a straggler (typically a worker stuck under a hub vertex).
	MetricWorkerTimeNS  = "engine_worker_time_ns"
	MetricWorkerMatches = "engine_worker_matches"

	// MetricTailSteals counts tail work-stealing splits: an idle worker
	// halving the heaviest in-flight block's remaining vertex range after
	// the block cursor ran dry. Rising steals with falling
	// engine_worker_time_ns skew is the mechanism working as intended.
	MetricTailSteals = "engine_tail_steals_total"

	// Trie (one-pass multi-pattern) execution: total plan levels the
	// merged trie shared (candidate computations saved versus mining each
	// pattern separately), and a histogram of how many patterns each
	// trie pass covered.
	MetricTrieSharedLevels    = "engine_trie_shared_levels_total"
	MetricTriePatternsPerPass = "engine_trie_patterns_per_pass"

	// Interruption counters, one increment per aborted execution:
	// cooperative cancellation, deadline expiry, and visitor/UDF panics
	// contained by the workers (see publishAbort).
	MetricRunsCanceled = "engine_runs_canceled_total"
	MetricRunsDeadline = "engine_runs_deadline_total"
	MetricWorkerPanics = "engine_worker_panics_total"
)

// publishStats adds a completed execution's Stats snapshot to the
// observer's registry — every counter except Matches, which executors
// stream live through MetricMatches while running (publishing it again
// here would double count). Call once per execution, after the workers
// have joined. Nil-safe in both arguments.
func publishStats(o *obs.Observer, st *Stats) {
	if st == nil {
		return
	}
	o.Counter(MetricSetOps).Add(0, st.SetOps)
	o.Counter(MetricSetElems).Add(0, st.SetElems)
	o.Counter(MetricSetMergeOps).Add(0, st.SetMergeOps)
	o.Counter(MetricSetGallopOps).Add(0, st.SetGallopOps)
	o.Counter(MetricSetBitsetOps).Add(0, st.SetBitsetOps)
	o.Counter(MetricSetCountOps).Add(0, st.SetCountOps)
	o.Counter(MetricSetUnrolledOps).Add(0, st.SetUnrolledOps)
	o.Counter(MetricSetWritten).Add(0, st.SetWritten)
	o.Counter(MetricMaterialized).Add(0, st.Materialized)
	o.Counter(MetricUDFCalls).Add(0, st.UDFCalls)
	o.Counter(MetricBranches).Add(0, st.Branches)
	o.Counter(MetricTailSteals).Add(0, st.TailSteals)
	o.Counter(MetricTrieSharedLevels).Add(0, st.TrieSharedLevels)
	if st.TriePasses > 0 {
		o.Histogram(MetricTriePatternsPerPass).Observe(0, st.TriePatterns/st.TriePasses)
	}
	o.Counter(MetricSetOpTimeNS).Add(0, uint64(st.SetOpTime))
	o.Counter(MetricMaterializeTimeNS).Add(0, uint64(st.MaterializeTime))
	o.Counter(MetricUDFTimeNS).Add(0, uint64(st.UDFTime))
	o.Counter(MetricRunTimeNS).Add(0, uint64(st.TotalTime))
	o.Histogram(MetricMineDurationNS).Observe(0, uint64(st.TotalTime))
	for i, l := range st.Levels {
		if l.Candidates == 0 && l.Extended == 0 {
			continue
		}
		o.Counter(LevelCandidatesMetric(i)).Add(0, l.Candidates)
		o.Counter(LevelExtendedMetric(i)).Add(0, l.Extended)
	}
	wt := o.Histogram(MetricWorkerTimeNS)
	wm := o.Histogram(MetricWorkerMatches)
	for _, w := range st.Workers {
		wt.Observe(w.Worker, uint64(w.Time))
		wm.Observe(w.Worker, w.Matches)
	}
}

// levelMetricCacheSize bounds the precomputed per-level metric name
// tables. Real plans have single-digit levels; anything past the cache
// falls back to formatting.
const levelMetricCacheSize = 32

var levelCandidatesNames, levelExtendedNames = func() ([levelMetricCacheSize]string, [levelMetricCacheSize]string) {
	var c, e [levelMetricCacheSize]string
	for i := range c {
		c[i] = fmt.Sprintf("engine_level_%d_candidates_total", i)
		e[i] = fmt.Sprintf("engine_level_%d_extended_total", i)
	}
	return c, e
}()

// LevelCandidatesMetric names the per-level candidate counter for
// exploration level i (flat names — the registry has no label support).
// Names for realistic level counts are precomputed so publishStats does
// not allocate on the per-execution hot path.
func LevelCandidatesMetric(i int) string {
	if i < levelMetricCacheSize {
		return levelCandidatesNames[i]
	}
	return fmt.Sprintf("engine_level_%d_candidates_total", i)
}

// LevelExtendedMetric names the per-level extension counter for level i.
// Extended/Candidates at one level is the measured selectivity the cost
// model's candidate-set estimates must track.
func LevelExtendedMetric(i int) string {
	if i < levelMetricCacheSize {
		return levelExtendedNames[i]
	}
	return fmt.Sprintf("engine_level_%d_extended_total", i)
}

// publishAbort records an interrupted execution in the registry: one
// increment on the counter matching the typed error (cancel, deadline,
// or contained panic). nil errors and untyped errors add nothing, so
// executors can call it unconditionally on their abort paths.
func publishAbort(o *obs.Observer, err error) {
	var pe *PanicError
	switch {
	case err == nil:
	case errors.As(err, &pe):
		o.Counter(MetricWorkerPanics).Inc(0)
	case errors.Is(err, ErrDeadlineExceeded):
		o.Counter(MetricRunsDeadline).Inc(0)
	case errors.Is(err, ErrCanceled):
		o.Counter(MetricRunsCanceled).Inc(0)
	}
}
