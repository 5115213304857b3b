package engine

import (
	"context"
	"fmt"
	"strings"

	"morphing/internal/graph"
	"morphing/internal/obs"
	"morphing/internal/pattern"
	"morphing/internal/plan"
)

// Policy is what one engine model decides for itself, the places §3.4
// says the paper's systems differ. Its zero value must be usable.
type Policy interface {
	Name() string                            // as Engine's
	SupportsInduced(iv pattern.Induced) bool // as Engine's
	// Plan builds the plan (matching order, restrictions) the model
	// executes for p on g; semantics it does not match natively fail with
	// ErrInducedUnsupported.
	Plan(g graph.Adjacency, p *pattern.Pattern) (*plan.Plan, error)
}

// Model is an engine model: a planning Policy over the depth-first
// executor. Each of the four engine packages is its Policy plus
// `type Engine = engine.Model[Policy]`; the Engine method set is written
// here, once.
type Model[P Policy] struct {
	Threads    int           // worker count (0 = GOMAXPROCS)
	Instrument bool          // phase timings for profiling figures
	Obs        *obs.Observer // metrics sink (nil = obs.Default())
	Policy     P             // the model's own knobs, if it has any
}

// Name implements Engine.
func (m *Model[P]) Name() string { return m.Policy.Name() }

// SupportsInduced implements Engine.
func (m *Model[P]) SupportsInduced(iv pattern.Induced) bool { return m.Policy.SupportsInduced(iv) }

// PlanPattern implements Engine: the policy's plan, errors prefixed with
// the model's name.
func (m *Model[P]) PlanPattern(g graph.Adjacency, p *pattern.Pattern) (*plan.Plan, error) {
	pl, err := m.Policy.Plan(g, p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", strings.ToLower(m.Name()), err)
	}
	return pl, nil
}

// ExecConfig implements Engine.
func (m *Model[P]) ExecConfig() (ExecOptions, *obs.Observer) {
	return ExecOptions{Threads: m.Threads, Instrument: m.Instrument}, m.Obs
}

// run executes p's plan on its own — a counting pass when sink is nil.
func (m *Model[P]) run(ctx context.Context, g graph.Adjacency, p *pattern.Pattern, sink Sink) (uint64, *Stats, error) {
	pl, err := m.PlanPattern(g, p)
	if err != nil {
		return 0, nil, err
	}
	opts, o := m.ExecConfig()
	return BacktrackCtx(ctx, g, pl, sink, opts, o)
}

// CountCtx implements Engine, with cooperative cancellation at the
// executor's poll points (partial counts on interruption).
func (m *Model[P]) CountCtx(ctx context.Context, g graph.Adjacency, p *pattern.Pattern) (uint64, *Stats, error) {
	return m.run(ctx, g, p, nil)
}

// MatchCtx implements Engine, with cooperative cancellation and
// visitor-panic containment. It streams one pattern through EachMatch; a
// pattern set streams in one pass through BuildTrie + MatchTrieCtx
// (core.Runner.StreamCtx).
func (m *Model[P]) MatchCtx(ctx context.Context, g graph.Adjacency, p *pattern.Pattern, visit Visitor) (*Stats, error) {
	_, st, err := m.run(ctx, g, p, EachMatch(visit))
	return st, err
}

// CountAllCtx implements Engine: the set is one pass over its merged
// trie, whatever the model (core.Runner mines every winner set the same
// way).
func (m *Model[P]) CountAllCtx(ctx context.Context, g graph.Adjacency, ps []*pattern.Pattern) ([]uint64, *Stats, error) {
	if len(ps) == 0 {
		return nil, &Stats{}, nil
	}
	tr, err := BuildTrie(m, g, ps)
	if err != nil {
		return nil, nil, err
	}
	opts, o := m.ExecConfig()
	return BacktrackTrieCtx(ctx, g, tr, opts, o)
}

// EdgeInducedOnly is the Plan-time rule of the models without anti-edge
// support (GraphPi, BigJoin): the pattern to plan for p — p itself, or the
// edge-induced twin of a vertex-induced clique — or ErrInducedUnsupported.
func EdgeInducedOnly(p *pattern.Pattern) (*pattern.Pattern, error) {
	switch {
	case p.HasExplicitAntiEdges(), p.Induced() == pattern.VertexInduced && !p.IsClique():
		return nil, ErrInducedUnsupported
	case p.Induced() == pattern.VertexInduced:
		return p.AsEdgeInduced(), nil
	}
	return p, nil
}
