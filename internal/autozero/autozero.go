// Package autozero models the paper's in-house AutoZero system: the
// compilation-based scheduling of AutoMine [40] combined with GraphZero's
// symmetry-breaking restrictions [39], augmented (as the paper does) with
// schedule merging — the nested-loop schedules of multiple input patterns
// are merged on common prefixes so overlapping loops execute once, while
// conflicting restrictions are applied separately to avoid under-counting.
// Instead of generating and compiling C++ like the original, schedules are
// plans (internal/plan) merged into a prefix trie and run by the shared
// depth-first executor (internal/engine); what this package contributes is
// the schedule order and the decision to merge.
//
// Merging is what makes AutoZero the best case for Subgraph Morphing
// (§7.1): the extra superpatterns that morphing introduces share loop
// prefixes with the query patterns, so they come almost for free.
package autozero

import (
	"context"
	"fmt"

	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/obs"
	"morphing/internal/pattern"
	"morphing/internal/plan"
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
// highest-degree-connected order.
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

// Count counts a single pattern.
func (e *Engine) Count(g graph.Adjacency, p *pattern.Pattern) (uint64, *engine.Stats, error) {
	return e.CountCtx(context.Background(), g, p)
}

// CountCtx implements engine.CtxEngine.
func (e *Engine) CountCtx(ctx context.Context, g graph.Adjacency, p *pattern.Pattern) (uint64, *engine.Stats, error) {
	return e.run(ctx, g, p, nil)
}

// Match streams matches of one pattern. Enumeration schedules are not
// merged (AutoMine streams pattern by pattern).
func (e *Engine) Match(g graph.Adjacency, p *pattern.Pattern, visit engine.Visitor) (*engine.Stats, error) {
	return e.MatchCtx(context.Background(), g, p, visit)
}

// MatchCtx implements engine.CtxEngine: Match with cooperative
// cancellation and visitor-panic containment.
func (e *Engine) MatchCtx(ctx context.Context, g graph.Adjacency, p *pattern.Pattern, visit engine.Visitor) (*engine.Stats, error) {
	_, st, err := e.run(ctx, g, p, visit)
	return st, err
}

// run executes p's schedule on its own, counting when visit is nil.
func (e *Engine) run(ctx context.Context, g graph.Adjacency, p *pattern.Pattern, visit engine.Visitor) (uint64, *engine.Stats, error) {
	pl, err := e.PlanPattern(g, p)
	if err != nil {
		return 0, nil, err
	}
	defer obs.FromContext(ctx, e.Obs).StartSpan("mine/"+p.String(), obs.Str("engine", e.Name())).End()
	opts, o := e.ExecConfig()
	return engine.BacktrackCtx(ctx, g, pl, visit, opts, o)
}

// CountAll compiles all patterns into one merged schedule and executes it
// in a single pass: schedules sharing loop prefixes share candidate
// computation, and conflicting symmetry restrictions stay on separate
// branches so nothing is under-counted. The merged schedule is the plan
// trie every engine's plans merge into (engine.BuildTrie) and the
// interpreter the shared executor; merging — where Peregrine and GraphPi
// loop over their patterns — is what this engine decides.
func (e *Engine) CountAll(g graph.Adjacency, ps []*pattern.Pattern) ([]uint64, *engine.Stats, error) {
	return e.CountAllCtx(context.Background(), g, ps)
}

// CountAllCtx implements engine.CtxEngine. Because the merged schedule
// advances all patterns in one pass, an interrupted run returns partial
// counts for every pattern simultaneously — each reflecting the vertex
// blocks completed before the abort took effect.
func (e *Engine) CountAllCtx(ctx context.Context, g graph.Adjacency, ps []*pattern.Pattern) ([]uint64, *engine.Stats, error) {
	if len(ps) == 0 {
		return nil, &engine.Stats{}, nil
	}
	tr, err := engine.BuildTrie(e, g, ps)
	if err != nil {
		return nil, nil, err
	}
	opts, o := e.ExecConfig()
	return engine.BacktrackTrieCtx(ctx, g, tr, opts, o)
}
