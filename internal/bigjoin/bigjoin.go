// Package bigjoin models the BigJoin system [4]: subgraph queries
// evaluated as worst-case optimal joins, one pattern vertex (attribute)
// bound per step by intersecting the adjacency lists of its bound
// neighbors. The original runs that join as a distributed dataflow on
// Timely Dataflow; in one process the same join, attribute by attribute,
// is the depth-first executor of internal/engine, so this package keeps
// only what §3.4 says distinguishes the system for Subgraph Morphing: its
// attribute order and — like the real system — no
// anti-edges: only edge-induced patterns are matched natively, and
// vertex-induced results need a Filter UDF
// (engine.CountVertexInducedViaFilterCtx, Fig. 4e) or Subgraph Morphing.
package bigjoin

import (
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/plan"
)

// Engine is a BigJoin-model matching engine.
type Engine = engine.Model[Policy]

// Policy is the BigJoin model's planning policy.
type Policy struct{}

// New returns an engine with the given worker count.
func New(threads int) *Engine { return &Engine{Threads: threads} }

// Name implements engine.Policy.
func (Policy) Name() string { return "BigJoin" }

// SupportsInduced implements engine.Policy: only edge-induced patterns are
// matched natively.
func (Policy) SupportsInduced(iv pattern.Induced) bool { return iv == pattern.EdgeInduced }

// Plan implements engine.Policy: the default plan's order is the join's
// attribute order.
func (Policy) Plan(_ graph.Adjacency, p *pattern.Pattern) (*plan.Plan, error) {
	p, err := engine.EdgeInducedOnly(p)
	if err != nil {
		return nil, err
	}
	return plan.Build(p)
}
