package engine

import (
	"context"
	"fmt"
	"runtime"

	"morphing/internal/graph"
	"morphing/internal/obs"
	"morphing/internal/plan"
)

// ExecOptions configures the depth-first executor.
type ExecOptions struct {
	// Threads is the worker count; 0 means GOMAXPROCS.
	Threads int
	// Instrument enables phase timings (Fig. 4 style breakdowns) at the
	// cost of timer calls around candidate generation and UDFs.
	Instrument bool
	// MatchLimit stops exploration once at least this many matches have
	// been found, over all plans of the pass together (0 = unlimited). The
	// final count may slightly exceed the limit (workers drain their
	// current root vertex). This implements Peregrine-style early
	// termination for existence-style queries.
	MatchLimit uint64
}

// ThreadCount resolves the effective worker count (GOMAXPROCS when
// Threads is zero).
func (o ExecOptions) ThreadCount() int {
	if o.Threads > 0 {
		return o.Threads
	}
	return runtime.GOMAXPROCS(0)
}

// BacktrackCtx explores all unique matches of the plan's pattern in g using
// pattern-aware backtracking: per level, candidates are the intersection
// of the adjacency lists of earlier matched neighbors, minus the adjacency
// lists of anti-neighbors, clipped by symmetry-breaking bounds. It is the
// trie executor (trie.go) on the one-leaf trie of pl: when visit is nil
// only the count is produced and the last levels run count-only (no
// materialization); with a visitor every match is delivered to it. The
// root level is parallelized over vertex blocks.
//
// o is the observability sink: counters land in its registry (workers
// flush per block, so hot loops stay on private fields). nil falls back
// to obs.Default(). The observer and the context travel as their own
// arguments rather than ExecOptions fields on purpose: keeping ExecOptions
// pointer-free keeps its GC shape trivial, which measurably matters to the
// executor's inner loops (adding a pointer field cost ~6% on motif
// counting).
//
// Cancellation is polled when a worker claims a work block and once per
// execution of a trie node that is not a leaf, never inside a leaf's
// kernels: a cancel or deadline takes effect within one such node's work
// and returns the partial count plus ErrCanceled / ErrDeadlineExceeded
// (see the partial-result contract in ctx.go). A panic thrown by the
// visitor is recovered in the owning worker, aborts the sibling workers at
// their next poll, and is surfaced as a single *PanicError carrying the
// stack — the process never crashes.
func BacktrackCtx(ctx context.Context, g graph.Adjacency, pl *plan.Plan, visit Visitor, opts ExecOptions, o *obs.Observer) (uint64, *Stats, error) {
	if pl == nil || pl.Pattern == nil {
		return 0, nil, fmt.Errorf("engine: nil plan")
	}
	if err := CtxErr(ctx); err != nil {
		return 0, nil, err
	}
	// The one-leaf trie lives in the pooled pass and is rebuilt in place, so
	// a steady stream of single-plan executions allocates nothing for it.
	ps := getTriePass()
	if err := ps.single.Reset(pl); err != nil {
		ps.release()
		return 0, nil, fmt.Errorf("engine: %w", err)
	}
	var visits []Visitor
	if visit != nil {
		ps.one[0] = visit
		visits = ps.one[:]
	}
	var count [1]uint64
	st, err := ps.mine(ctx, g, &ps.single, visits, count[:], opts, o)
	return count[0], st, err
}
