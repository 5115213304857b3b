// Package sc implements Subgraph Counting: counting the matches of an
// explicit set of query patterns (§7.1, Fig. 13a). Unlike motif counting,
// the superpatterns that morphing introduces are generally not part of
// the input set, so the selection algorithm must weigh the cost of mining
// extra patterns against the anti-edge savings.
package sc

import (
	"context"
	"fmt"

	"morphing/internal/core"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
)

// CountCtx returns the number of matches of each query pattern in g. With
// morph enabled, queries go through Subgraph Morphing; engines without
// native vertex-induced support (GraphPi/BigJoin models) then compute
// vertex-induced counts UDF-free via edge-induced alternatives (§7.2).
// Cancellation and deadlines are honored at the executor's poll points, and
// on interruption the returned RunStats carries the per-alternative partial
// counts (RunStats.Partial) alongside the typed error.
func CountCtx(ctx context.Context, g graph.Adjacency, queries []*pattern.Pattern, eng engine.Engine, morph bool) ([]uint64, *core.RunStats, error) {
	if len(queries) == 0 {
		return nil, nil, fmt.Errorf("sc: empty query set")
	}
	r := &core.Runner{Engine: eng, DisableMorphing: !morph, Label: "sc"}
	return r.CountsCtx(ctx, g, queries)
}

// CountBaselineWithFilter is the pre-morphing strategy for vertex-induced
// queries on engines lacking anti-edge support: match the edge-induced
// variant and reject matches with extra edges through a Filter UDF
// (Fig. 4d-e), under ctx like the morphed run it is compared with.
func CountBaselineWithFilter(ctx context.Context, g graph.Adjacency, queries []*pattern.Pattern, eng engine.Engine) ([]uint64, *engine.Stats, error) {
	counts := make([]uint64, len(queries))
	total := &engine.Stats{}
	for i, q := range queries {
		if q.Induced() != pattern.VertexInduced {
			return nil, nil, fmt.Errorf("sc: filter baseline requires vertex-induced queries, got %v", q)
		}
		c, st, err := engine.CountVertexInducedViaFilterCtx(ctx, eng, g, q)
		if err != nil {
			return nil, nil, err
		}
		counts[i] = c
		total.Add(st)
	}
	return counts, total, nil
}
