package server

import (
	"fmt"
	"time"

	"morphing/internal/report"
)

// ClientTokenHeader identifies the tenant for fairness accounting. A
// missing header is the anonymous client (one shared quota bucket).
const ClientTokenHeader = "X-Morph-Client"

// Bounds on what one request may make the server read and resolve before
// any gate (quota, queue, budget) applies. The largest query an app in this
// repository issues is the 21-pattern 5-motif set.
const (
	maxBodyBytes = 1 << 20
	maxPatterns  = 1024
)

// QueryRequest is the JSON body of POST /query: the pattern codec, the
// app, and per-query options.
type QueryRequest struct {
	// Patterns are named patterns ("4-cycle:v") or codec text
	// ("n=4;e=0-1,1-2,2-3,3-0;v"), as accepted by morphcli.
	Patterns []string `json:"patterns"`
	// App selects the pipeline: "count" (default; per-query subgraph
	// counts) or "mni" (per-query MNI support, FSM-style).
	App string `json:"app,omitempty"`
	// Engine overrides the server's default matching engine
	// (peregrine, autozero, graphpi, bigjoin).
	Engine string `json:"engine,omitempty"`
	// Baseline disables morphing (the queries run as-is).
	Baseline bool `json:"baseline,omitempty"`
	// Explain enables per-pattern calibration (EXPLAIN ANALYZE
	// semantics; see core.Runner.Explain).
	Explain bool `json:"explain,omitempty"`
	// DeadlineMS caps the query's total time (queued + mining); 0 uses
	// the server default, and the server clamps to its maximum.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// NoCache bypasses the result cache and single-flight coalescing.
	NoCache bool `json:"no_cache,omitempty"`
	// Report asks for the full run report in the result. It does not
	// change what runs or what is cached, so it is not part of the cache
	// key; typed errors carry their report either way.
	Report bool `json:"report,omitempty"`
}

// Validate applies the request-shape checks both sides agree on.
func (q *QueryRequest) Validate() error {
	if len(q.Patterns) == 0 {
		return fmt.Errorf("patterns must be non-empty")
	}
	if len(q.Patterns) > maxPatterns {
		return fmt.Errorf("%d patterns in one query, at most %d", len(q.Patterns), maxPatterns)
	}
	switch q.App {
	case "", "count", "mni":
	default:
		return fmt.Errorf("unknown app %q (want count or mni)", q.App)
	}
	if q.DeadlineMS < 0 {
		return fmt.Errorf("deadline_ms must be >= 0")
	}
	return nil
}

// QueryResult is a successful query's payload: the answers, how they were
// produced and the run that produced them — and, when the request set
// Report, that run's full report (RunStats, calibration, query log).
type QueryResult struct {
	// Patterns echoes the resolved query patterns in codec form, in
	// request order (counts/supports are index-aligned with it).
	Patterns []string `json:"patterns"`
	// Counts holds per-query subgraph counts (app=count).
	Counts []uint64 `json:"counts,omitempty"`
	// Supports holds per-query MNI supports (app=mni).
	Supports []int `json:"supports,omitempty"`
	// Cache reports how the result was produced: "miss" (executed),
	// "hit" (served from the result cache), or "coalesced" (rode an
	// identical in-flight query's execution, single-flight).
	Cache string `json:"cache"`
	// RunID names the execution that mined the answers (for hits and
	// coalesced results: the originating one); the query log and a flight
	// bundle carry the same ID.
	RunID string `json:"run_id,omitempty"`
	// Report is that execution's run report, present only when the
	// request asked for it.
	Report *report.RunReport `json:"report,omitempty"`
}

// Stream event types: an admitted query's response body is an ndjson
// stream of StreamEvent lines, terminated by exactly one result or error
// event. Pre-admission rejections use plain HTTP status codes instead
// (see Code.HTTPStatus).
const (
	EventQueued  = "queued"
	EventStarted = "started"
	EventResult  = "result"
	EventError   = "error"
)

// StreamEvent is one line of the response stream.
type StreamEvent struct {
	Type string `json:"type"`
	// QueueDepth and Position report the queue state at admission
	// (queued events).
	QueueDepth int `json:"queue_depth,omitempty"`
	Position   int `json:"position,omitempty"`
	// Result carries the payload of a terminal result event.
	Result *QueryResult `json:"result,omitempty"`
	// Error carries the typed failure of a terminal error event.
	Error *QueryError `json:"error,omitempty"`
}

// Health is the GET /healthz payload.
type Health struct {
	Status     string `json:"status"` // "ok" or "draining"
	QueueDepth int    `json:"queue_depth"`
	InFlight   int    `json:"in_flight"`
	GraphEpoch uint64 `json:"graph_epoch"`
	Vertices   int    `json:"graph_vertices"`
	Edges      uint64 `json:"graph_edges"`
}

// clampDeadline resolves a request deadline: none means defaultDeadline,
// and no request runs longer than maxDeadline.
func clampDeadline(req time.Duration) time.Duration {
	switch {
	case req <= 0:
		return defaultDeadline
	case req > maxDeadline:
		return maxDeadline
	}
	return req
}
