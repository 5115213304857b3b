package core

import (
	"math"

	"morphing/internal/costmodel"
	"morphing/internal/pattern"
)

// Costs is one row of a cost table: what mining a structure's two variants
// costs, each on its own.
type Costs struct {
	E, V float64
}

// additive turns a per-structure table into a CostFunc, the additive
// special case of set pricing: one level per pair under a key of its own,
// so nothing is shared and a set costs the sum of its members. The variants
// of a clique are the same pattern; its one true cost is the smaller entry.
func additive(table func(n *Node) Costs) CostFunc {
	return func(n *Node, v pattern.Induced, dst []costmodel.Level) []costmodel.Level {
		c := table(n)
		cost := c.E
		switch {
		case n.Pattern.IsClique():
			cost = math.Min(c.E, c.V)
		case v == pattern.VertexInduced:
			cost = c.V
		}
		return append(dst, costmodel.Level{Key: n.ID*0x9e3779b97f4a7c15 ^ uint64(v), Cost: cost})
	}
}
