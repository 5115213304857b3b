// Package peregrine models the Peregrine system [26]: a pattern-aware
// graph mining engine that analyzes the input pattern (edges, anti-edges,
// symmetries) to produce an exploration plan, then matches it with
// merge-based set operations over CSR adjacency lists, parallelized across
// vertex tasks. It supports both edge- and vertex-induced patterns
// natively (anti-edges become set differences), plans each pattern on its
// own, and can stop a run early once enough matches are known. What this
// package contributes is that policy; the executor, which mines a set of
// plans as one merged trie, is internal/engine's.
package peregrine

import (
	"context"

	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/obs"
	"morphing/internal/pattern"
	"morphing/internal/plan"
)

// Engine is a Peregrine-model matching engine.
type Engine = engine.Model[Policy]

// Policy is the Peregrine model's planning policy.
type Policy struct{}

// New returns an engine with the given worker count.
func New(threads int) *Engine { return &Engine{Threads: threads} }

// Name implements engine.Policy.
func (Policy) Name() string { return "Peregrine" }

// SupportsInduced implements engine.Policy: anti-edges are handled
// natively, so both semantics are supported.
func (Policy) SupportsInduced(pattern.Induced) bool { return true }

// Plan implements engine.Policy: Peregrine's pattern analysis is the
// default degree-greedy plan.
func (Policy) Plan(_ graph.Adjacency, p *pattern.Pattern) (*plan.Plan, error) { return plan.Build(p) }

// ExistsCtx reports whether g contains at least one match of p,
// terminating exploration as soon as one is found (Peregrine's
// early-termination feature, §8). On interruption the boolean is only
// meaningful when true (a match was found before the abort).
func ExistsCtx(ctx context.Context, e *Engine, g graph.Adjacency, p *pattern.Pattern) (bool, *engine.Stats, error) {
	n, st, err := CountUpToCtx(ctx, e, g, p, 1)
	return n > 0, st, err
}

// CountUpToCtx counts matches but stops exploring once at least limit
// have been found; the returned count may slightly exceed limit (workers
// finish their current root vertex), and limit 0 counts everything. Early
// termination and cooperative cancellation compose — whichever fires
// first stops the run, and only cancellation yields a typed error.
func CountUpToCtx(ctx context.Context, e *Engine, g graph.Adjacency, p *pattern.Pattern, limit uint64) (uint64, *engine.Stats, error) {
	pl, err := e.PlanPattern(g, p)
	if err != nil {
		return 0, nil, err
	}
	defer obs.FromContext(ctx, e.Obs).StartSpan("mine/"+p.String(), obs.Str("engine", e.Name())).End()
	opts, o := e.ExecConfig()
	opts.MatchLimit = limit
	return engine.BacktrackCtx(ctx, g, pl, nil, opts, o)
}
