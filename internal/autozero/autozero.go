// Package autozero models the paper's in-house AutoZero system: the
// compilation-based scheduling of AutoMine [40] combined with GraphZero's
// symmetry-breaking restrictions [39], augmented (as the paper does) with
// schedule merging — the nested-loop schedules of multiple input patterns
// are merged on common prefixes so overlapping loops execute once, while
// conflicting restrictions are applied separately to avoid under-counting.
// Instead of generating and compiling C++ like the original, schedules are
// plans (internal/plan) merged into a prefix trie and run by the shared
// depth-first executor (internal/engine). The merge is the executor's, the
// same for every engine model (core.Runner mines every engine's winner set
// as one trie); what this package contributes is the schedule order.
//
// Merging is what makes AutoZero the best case for Subgraph Morphing
// (§7.1): the extra superpatterns that morphing introduces share loop
// prefixes with the query patterns, so they come almost for free.
package autozero

import (
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/plan"
)

// Engine is an AutoZero-model matching engine.
type Engine = engine.Model[Policy]

// Policy is the AutoZero model's planning policy.
type Policy struct{}

// New returns an engine with the given worker count.
func New(threads int) *Engine { return &Engine{Threads: threads} }

// Name implements engine.Policy.
func (Policy) Name() string { return "AutoZero" }

// SupportsInduced implements engine.Policy: schedules express anti-edges
// as set differences, so both semantics are supported.
func (Policy) SupportsInduced(pattern.Induced) bool { return true }

// Plan implements engine.Policy: AutoZero schedules with its own
// highest-degree-connected order.
func (Policy) Plan(_ graph.Adjacency, p *pattern.Pattern) (*plan.Plan, error) {
	return plan.BuildWithOrder(p, order(p))
}

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
