package core

import (
	"fmt"

	"morphing/internal/pattern"
)

// StreamTarget routes one alternative pattern's match stream to one
// query (Algorithm 3): every match is converted through each map in Maps
// (one per distinct copy of the query inside the alternative). Match
// streams (Runner.StreamCtx) are the one output converted on the fly;
// counts and MNI tables are converted batched (Selection.Convert).
type StreamTarget struct {
	Query int
	Maps  [][]int
}

// StreamPlan returns, for each Mine choice, the queries its match stream
// feeds and their conversion maps; a query mined as itself gets the
// identity (the first of its automorphisms ConversionMaps finds), so it
// receives the engine's own tuples. Mining each choice exactly once and
// fanning its stream out to all targets is how enumeration workloads
// avoid re-mining alternatives shared between queries (§7.3). Queries
// must be edge-induced or unmorphed; alternatives feeding morphed queries
// must be vertex-induced (or cliques).
func (sel *Selection) StreamPlan() ([][]StreamTarget, error) {
	targets := make([][]StreamTarget, len(sel.Mine))
	for qi, q := range sel.Queries {
		if !q.Morphed {
			idx, ok := sel.byPair[pairKey{q.Node.ID, normVariant(q.Pattern)}]
			if !ok {
				return nil, fmt.Errorf("core: unmorphed query %d missing from mine list", qi)
			}
			maps := ConversionMaps(q.Pattern, sel.Mine[idx].Pattern, false)
			if len(maps) == 0 {
				return nil, fmt.Errorf("core: query %d cannot map onto its own frame", qi)
			}
			targets[idx] = append(targets[idx], StreamTarget{Query: qi, Maps: maps})
			continue
		}
		if normVariant(q.Pattern) != pattern.EdgeInduced {
			return nil, fmt.Errorf("core: on-the-fly conversion requires an edge-induced query (additive direction); query %d is vertex-induced", qi)
		}
		up, err := sel.SDAG.UpSet(q.Node)
		if err != nil {
			return nil, err
		}
		for _, s := range up {
			idx, ok := sel.byPair[pairKey{s.ID, pattern.VertexInduced}]
			if !ok && s.Pattern.IsClique() {
				idx, ok = sel.byPair[pairKey{s.ID, pattern.EdgeInduced}]
			}
			if !ok {
				return nil, fmt.Errorf("core: up-set structure %d of query %d not mined vertex-induced", s.ID, qi)
			}
			maps := ConversionMaps(q.Pattern, sel.Mine[idx].Pattern, false)
			if len(maps) == 0 {
				return nil, fmt.Errorf("core: no conversion maps from query %d into alternative %v", qi, sel.Mine[idx].Pattern)
			}
			targets[idx] = append(targets[idx], StreamTarget{Query: qi, Maps: maps})
		}
	}
	return targets, nil
}
