package engine

import "morphing/internal/obs"

// Registry metric names shared by every engine model. Counters are
// cumulative over the process lifetime (Prometheus convention); the
// per-execution snapshot remains the Stats struct, which also carries
// everything published nowhere else (phase times, per-level and
// per-worker counts). DESIGN §11 names each metric's consumer.
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

	MetricRunTimeNS = "engine_run_time_ns_total"

	// MetricMineDurationNS is a log-scale histogram of per-execution
	// wall-clock, one observation per Count/Match/CountAll.
	MetricMineDurationNS = "engine_mine_duration_ns"

	// MetricTailSteals counts tail work-stealing splits: an idle worker
	// halving the in-flight root range with the most unclaimed vertices
	// after the block cursor ran dry, as often as a pass needs.
	MetricTailSteals = "engine_tail_steals_total"

	// MetricTriePatternsPerPass is a histogram of how many patterns each
	// trie pass covered; its count is the number of passes.
	MetricTriePatternsPerPass = "engine_trie_patterns_per_pass"
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
	if st.TriePasses > 0 {
		o.Histogram(MetricTriePatternsPerPass).Observe(0, st.TriePatterns/st.TriePasses)
	}
	o.Counter(MetricRunTimeNS).Add(0, uint64(st.TotalTime))
	o.Histogram(MetricMineDurationNS).Observe(0, uint64(st.TotalTime))
}
