package obs

import "strings"

// metricHelp is the Prometheus HELP text of every metric the repository
// publishes: the "meaning" column of DESIGN §11's table, which lists each
// one with its consumers. WritePrometheus prints a HELP line only for the
// names listed here (and the per-code rejection counters, see help).
var metricHelp = map[string]string{
	"engine_matches_total":           "matches delivered, streamed per block",
	"engine_set_ops_total":           "set operations",
	"engine_set_elems_total":         "elements set operations touched",
	"engine_set_merge_ops_total":     "set operations served by the merge kernel path",
	"engine_set_gallop_ops_total":    "set operations served by the galloping kernel path",
	"engine_set_bitset_ops_total":    "set operations served by hub bitmaps",
	"engine_set_countonly_ops_total": "set operations served by a count-only kernel",
	"engine_set_unrolled_ops_total":  "set operations served by an unrolled kernel",
	"engine_set_written_elems_total": "elements written to destination sets",
	"engine_materialized_total":      "materialized matches",
	"engine_udf_calls_total":         "UDF invocations",
	"engine_branches_total":          "modeled data-dependent branches",
	"engine_tail_steals_total":       "tail work-stealing splits",
	"engine_trie_patterns_per_pass":  "patterns per executor pass (count = passes)",
	"engine_run_time_ns_total":       "executor wall time in nanoseconds",
	"engine_mine_duration_ns":        "per-execution wall time in nanoseconds",

	"run_total":                   "completed pipeline executions",
	"run_transform_time_ns_total": "S-DAG and Algorithm 1 time in nanoseconds",
	"run_convert_time_ns_total":   "result conversion time in nanoseconds",
	"run_interrupted_total":       "executions ended by cancel, deadline or contained panic",

	"graph_decode_rows_total":        "compressed-tier rows decoded",
	"graph_decode_blocks_total":      "compressed-tier blocks decoded",
	"graph_decode_elems_total":       "compressed-tier elements decoded",
	"graph_probe_block_hits_total":   "edge probes answered without a decode",
	"graph_probe_block_misses_total": "edge probes that decoded a block",
	"graph_mmap_resident_bytes":      "page-cache resident bytes of the mapped graph at run end",
	"graph_mmap_mapped_bytes":        "mapped bytes of the graph at run end",

	"server_queries_total":            "requests received",
	"server_cache_hits_total":         "queries answered from the result cache",
	"server_cache_misses_total":       "queries the result cache could not answer",
	"server_coalesced_total":          "queries that rode an identical query's single flight",
	"server_admission_rejects_total":  "typed rejections, all codes",
	"server_query_errors_total":       "outcomes that spend availability budget",
	"server_query_panics_total":       "contained panics",
	"server_query_interrupted_total":  "queries ended by cancel or deadline",
	"server_drain_canceled_total":     "queries force-canceled at the drain deadline",
	"server_phase_admit_ns":           "admission latency in nanoseconds",
	"server_phase_queue_ns":           "queue latency in nanoseconds",
	"server_phase_mine_ns":            "mining latency in nanoseconds",
	"server_phase_total_ns":           "total query latency in nanoseconds",
	"server_queue_depth":              "queued queries",
	"server_inflight":                 "queries on workers",
	"server_admission_bytes_inflight": "admitted budget in bytes",
}

// help returns the HELP text of a published metric, "" for any other name.
// The per-code rejection counters, server_reject_<code>_total, are one
// family of the table.
func help(name string) string {
	if h, ok := metricHelp[name]; ok {
		return h
	}
	if code, ok := strings.CutPrefix(name, "server_reject_"); ok {
		if code, ok := strings.CutSuffix(code, "_total"); ok {
			return "typed rejections with code " + code
		}
	}
	return ""
}
