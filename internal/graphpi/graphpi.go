// Package graphpi models the GraphPi system [57]: a subgraph matching
// engine that uses a performance model to select an efficient matching
// order among candidate orders, plus restriction pairs for redundancy
// elimination. Like the real system it matches edge-induced patterns only;
// vertex-induced results require either a Filter UDF that probes for extra
// edges on every match (engine.CountVertexInducedViaFilterCtx, the
// expensive baseline of Fig. 4d / Fig. 14a) or Subgraph Morphing. What
// this package contributes is the order selection; the executor is
// internal/engine's.
package graphpi

import (
	"fmt"
	"math"

	"morphing/internal/costmodel"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/plan"
)

// Engine is a GraphPi-model matching engine.
type Engine = engine.Model[Policy]

// Policy is the GraphPi model's planning policy.
type Policy struct{}

// orderCap caps how many connected matching orders the performance model
// evaluates per pattern: exhaustive for patterns up to 5 vertices (5! =
// 120), beyond that a sample spread evenly over the start vertices
// (plan.ConnectedOrders).
const orderCap = 120

// New returns an engine with the given worker count.
func New(threads int) *Engine { return &Engine{Threads: threads} }

// Name implements engine.Policy.
func (Policy) Name() string { return "GraphPi" }

// SupportsInduced implements engine.Policy: only edge-induced patterns are
// matched natively.
func (Policy) SupportsInduced(iv pattern.Induced) bool { return iv == pattern.EdgeInduced }

// Plan implements engine.Policy: the matching order that minimizes the
// performance model over connected orders, GraphPi's core technique.
func (Policy) Plan(g graph.Adjacency, p *pattern.Pattern) (*plan.Plan, error) {
	p, err := engine.EdgeInducedOnly(p)
	if err != nil {
		return nil, err
	}
	orders := plan.ConnectedOrders(p, orderCap)
	conds := plan.SymmetryConditions(p)
	model := costmodel.NewDefault(graph.Summarize(g))
	var best *plan.Plan
	bestPrice := math.NaN()
	for _, order := range orders {
		pl, err := plan.BuildWithConditions(p, order, conds)
		if err != nil {
			return nil, err
		}
		if c := model.PlanCost(pl); best == nil || cheaper(c, bestPrice) {
			best, bestPrice = pl, c
		}
	}
	if best == nil {
		return nil, fmt.Errorf("no connected order for pattern %v", p)
	}
	return best, nil
}

// cheaper reports whether price c beats best, the lowest so far: only a
// finite price wins, and over a finite best only a lower one. A model that
// prices every order NaN or infinite thus leaves the first order
// standing, not none.
func cheaper(c, best float64) bool {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	return finite(c) && (!finite(best) || c < best)
}
