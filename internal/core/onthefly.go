package core

import (
	"context"
	"fmt"

	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
)

// OnTheFlyVisitor implements Algorithm 3: it wraps an application visitor
// for query pattern p so it can consume the match stream of alternative
// pattern q. Every match m of q is converted into the matches of p it
// contains — one per distinct copy of p inside q — by permuting the match
// through the conversion maps, and each converted match is handed to
// visit. When q and p are the same structure in the same frame this
// degenerates to the identity wrapper.
//
// Converted matches preserve the engine guarantee of one embedding per
// unique subgraph: the alternative set partitions p's matches across the
// vertex-induced superpatterns (Eq. 1), and coset-representative maps emit
// each contained copy exactly once.
func OnTheFlyVisitor(p, q *pattern.Pattern, visit engine.Visitor) (engine.Visitor, error) {
	maps := ConversionMaps(p, q, false)
	if len(maps) == 0 {
		return nil, fmt.Errorf("core: no conversion maps from %v into %v", p, q)
	}
	if len(maps) == 1 && isIdentity(maps[0]) && p.N() == q.N() {
		return visit, nil
	}
	n := p.N()
	// The converted buffer is per-call state; visitors can run
	// concurrently, so allocate per invocation scratch from a small
	// buffer pool keyed by worker would be overkill — a stack allocation
	// of ≤ MaxVertices keeps this allocation-free.
	return func(worker int, m []uint32) {
		var buf [pattern.MaxVertices]uint32
		converted := buf[:n]
		for _, f := range maps {
			for i, qi := range f {
				converted[i] = m[qi]
			}
			visit(worker, converted)
		}
	}, nil
}

// StreamTarget routes one alternative pattern's match stream to one
// query: every match is converted through each map in Maps (one per
// distinct copy of the query inside the alternative).
type StreamTarget struct {
	Query int
	Maps  [][]int
}

// StreamPlan returns, for each Mine choice, the queries its match stream
// feeds and their conversion maps. Mining each choice exactly once and
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

func isIdentity(f []int) bool {
	for i, v := range f {
		if i != v {
			return false
		}
	}
	return true
}

// StreamMorphedCtx runs subgraph enumeration for an edge-induced query p
// through Subgraph Morphing on any engine supporting vertex-induced
// matching: the selected vertex-induced alternatives' streams are
// converted on the fly (§6.2, used by the Fig. 15a experiment). The
// returned stats aggregate all alternative runs. On interruption the
// stats accumulated so far are returned alongside the typed error;
// matches already streamed to visit stay delivered (a partial stream,
// never a corrupted one).
func StreamMorphedCtx(ctx context.Context, sel *Selection, queryIdx int, eng engine.Engine, g graph.Adjacency, visit engine.Visitor) (*engine.Stats, error) {
	plan, err := sel.StreamPlan()
	if err != nil {
		return nil, err
	}
	q := sel.Queries[queryIdx].Pattern
	var mine []Choice
	var visits []engine.Visitor
	for ci, targets := range plan {
		for _, t := range targets {
			if t.Query != queryIdx {
				continue
			}
			wrapped, err := OnTheFlyVisitor(q, sel.Mine[ci].Pattern, visit)
			if err != nil {
				return nil, err
			}
			mine, visits = append(mine, sel.Mine[ci]), append(visits, wrapped)
		}
	}
	var st RunStats
	err = (&Runner{Engine: eng}).MatchAllCtx(ctx, g, mine, visits, &st)
	if err != nil && !engine.Interrupted(err) {
		return nil, err
	}
	return st.Mining, err
}
