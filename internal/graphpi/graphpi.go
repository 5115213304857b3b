// Package graphpi models the GraphPi system [57]: a subgraph matching
// engine that uses a performance model to select an efficient matching
// order among candidate orders, plus restriction pairs for redundancy
// elimination. Like the real system it matches edge-induced patterns only;
// vertex-induced results require either a Filter UDF that probes for extra
// edges on every match (the expensive baseline of Fig. 4d / Fig. 14a) or
// Subgraph Morphing.
package graphpi

import (
	"context"
	"fmt"
	"math"

	"morphing/internal/costmodel"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/obs"
	"morphing/internal/pattern"
	"morphing/internal/plan"
)

// Engine is a GraphPi-model matching engine.
type Engine struct {
	// Threads is the worker count (0 = GOMAXPROCS).
	Threads int
	// Instrument enables phase timings.
	Instrument bool
	// Obs receives metrics and mine/<pattern> spans (nil = obs.Default()).
	Obs *obs.Observer
	// MaxOrders caps how many connected matching orders the performance
	// model evaluates per pattern (0 = 120; exhaustive for patterns up to
	// 5 vertices, a broad sample beyond).
	MaxOrders int
}

var (
	_ engine.CtxEngine = (*Engine)(nil)
	_ engine.Planner   = (*Engine)(nil)
)

// PlanPattern implements engine.Planner: the cost-model-selected order
// (planFor), so trie execution preserves GraphPi's per-pattern order
// choices. Vertex-induced non-cliques are rejected exactly like the
// native matching paths.
func (e *Engine) PlanPattern(g graph.Adjacency, p *pattern.Pattern) (*plan.Plan, error) {
	return e.planFor(g, p)
}

// ExecConfig implements engine.Planner.
func (e *Engine) ExecConfig() (engine.ExecOptions, *obs.Observer) {
	return e.opts(), e.Obs
}

// New returns an engine with the given worker count.
func New(threads int) *Engine { return &Engine{Threads: threads} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "GraphPi" }

// SupportsInduced implements engine.Engine: only edge-induced patterns are
// matched natively.
func (e *Engine) SupportsInduced(iv pattern.Induced) bool {
	return iv == pattern.EdgeInduced
}

func (e *Engine) opts() engine.ExecOptions {
	return engine.ExecOptions{Threads: e.Threads, Instrument: e.Instrument}
}

// span opens a mine/<pattern> phase span on the resolved observer: the
// context's run scope when one is attached, the engine's own otherwise.
func (e *Engine) span(ctx context.Context, p *pattern.Pattern) *obs.Span {
	return obs.FromContext(ctx, e.Obs).StartSpan("mine/"+p.String(), obs.Str("engine", e.Name()))
}

// planFor selects the matching order by minimizing the performance model
// over connected orders, GraphPi's core technique.
func (e *Engine) planFor(g graph.Adjacency, p *pattern.Pattern) (*plan.Plan, error) {
	if p.HasExplicitAntiEdges() ||
		(p.Induced() == pattern.VertexInduced && !p.IsClique()) {
		return nil, fmt.Errorf("graphpi: %w", engine.ErrInducedUnsupported)
	}
	if p.Induced() == pattern.VertexInduced {
		p = p.AsEdgeInduced() // cliques have no anti-edges
	}
	max := e.MaxOrders
	if max <= 0 {
		max = 120
	}
	orders := plan.ConnectedOrders(p, max)
	conds := plan.SymmetryConditions(p)
	model := costmodel.NewDefault(graph.Summarize(g))
	var best *plan.Plan
	bestCost := math.Inf(1)
	for _, order := range orders {
		pl, err := plan.BuildWithConditions(p, order, conds)
		if err != nil {
			return nil, fmt.Errorf("graphpi: %w", err)
		}
		if c := model.PlanCost(pl); c < bestCost {
			best, bestCost = pl, c
		}
	}
	if best == nil {
		return nil, fmt.Errorf("graphpi: no connected order for pattern %v", p)
	}
	return best, nil
}

// Count returns the number of unique edge-induced matches of p in g.
func (e *Engine) Count(g graph.Adjacency, p *pattern.Pattern) (uint64, *engine.Stats, error) {
	return e.CountCtx(context.Background(), g, p)
}

// CountCtx implements engine.CtxEngine.
func (e *Engine) CountCtx(ctx context.Context, g graph.Adjacency, p *pattern.Pattern) (uint64, *engine.Stats, error) {
	pl, err := e.planFor(g, p)
	if err != nil {
		return 0, nil, err
	}
	defer e.span(ctx, p).End()
	return engine.BacktrackCtx(ctx, g, pl, nil, e.opts(), e.Obs)
}

// CountAll counts each pattern independently.
func (e *Engine) CountAll(g graph.Adjacency, ps []*pattern.Pattern) ([]uint64, *engine.Stats, error) {
	return e.CountAllCtx(context.Background(), g, ps)
}

// CountAllCtx implements engine.CtxEngine. On interruption the returned
// slice holds the per-pattern partial counts accumulated so far.
func (e *Engine) CountAllCtx(ctx context.Context, g graph.Adjacency, ps []*pattern.Pattern) ([]uint64, *engine.Stats, error) {
	counts := make([]uint64, len(ps))
	total := &engine.Stats{}
	for i, p := range ps {
		c, st, err := e.CountCtx(ctx, g, p)
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
	return e.MatchCtx(context.Background(), g, p, visit)
}

// MatchCtx implements engine.CtxEngine: Match with cooperative
// cancellation and visitor-panic containment.
func (e *Engine) MatchCtx(ctx context.Context, g graph.Adjacency, p *pattern.Pattern, visit engine.Visitor) (*engine.Stats, error) {
	pl, err := e.planFor(g, p)
	if err != nil {
		return nil, err
	}
	defer e.span(ctx, p).End()
	_, st, err := engine.BacktrackCtx(ctx, g, pl, visit, e.opts(), e.Obs)
	return st, err
}

// CountVertexInducedViaFilter counts the vertex-induced matches of p the
// way a user must without morphing: match the edge-induced variant and run
// a Filter UDF on every match that probes the data graph for edges between
// the pattern's non-adjacent vertex pairs, rejecting matches that have
// any. The probes are the data-dependent branches that dominate baseline
// time in Fig. 4d and Fig. 14.
func (e *Engine) CountVertexInducedViaFilter(g graph.Adjacency, p *pattern.Pattern) (uint64, *engine.Stats, error) {
	return e.CountVertexInducedViaFilterCtx(context.Background(), g, p)
}

// CountVertexInducedViaFilterCtx is CountVertexInducedViaFilter under a
// context (partial counts on interruption).
func (e *Engine) CountVertexInducedViaFilterCtx(ctx context.Context, g graph.Adjacency, p *pattern.Pattern) (uint64, *engine.Stats, error) {
	pE := p.AsEdgeInduced()
	pl, err := e.planFor(g, pE)
	if err != nil {
		return 0, nil, err
	}
	defer obs.FromContext(ctx, e.Obs).StartSpan("mine/"+p.String(),
		obs.Str("engine", e.Name()), obs.Str("mode", "filter-udf")).End()
	return CountViaFilterCtx(ctx, g, pl, p.NonEdges(), e.opts(), e.Obs)
}

// CountViaFilter runs an edge-induced plan and counts the matches that
// survive the extra-edge Filter UDF over nonEdges. Exposed for reuse by
// the BigJoin model's benchmarks and by tests.
func CountViaFilter(g graph.Adjacency, pl *plan.Plan, nonEdges [][2]int, opts engine.ExecOptions, o *obs.Observer) (uint64, *engine.Stats, error) {
	return CountViaFilterCtx(context.Background(), g, pl, nonEdges, opts, o)
}

// CountViaFilterCtx is CountViaFilter under a context. On interruption
// the surviving-match count accumulated so far is returned alongside the
// typed error (the partial-result contract of engine.BacktrackCtx).
func CountViaFilterCtx(ctx context.Context, g graph.Adjacency, pl *plan.Plan, nonEdges [][2]int, opts engine.ExecOptions, o *obs.Observer) (uint64, *engine.Stats, error) {
	return engine.CountViaEdgeFilter(ctx, g, nonEdges, o, func(visit engine.Visitor) (*engine.Stats, error) {
		_, st, err := engine.BacktrackCtx(ctx, g, pl, visit, opts, o)
		return st, err
	})
}
