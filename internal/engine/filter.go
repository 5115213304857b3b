package engine

import (
	"context"
	"math/bits"

	"morphing/internal/graph"
	"morphing/internal/obs"
	"morphing/internal/pattern"
)

// CountVertexInducedViaFilterCtx counts the vertex-induced matches of p
// the way a user must without morphing on an engine that matches
// edge-induced patterns only (GraphPi, BigJoin): e's plan for the
// edge-induced variant streams every match through the extra-edge Filter
// UDF — the expensive baseline of Fig. 4d-e and Fig. 14.
func CountVertexInducedViaFilterCtx(ctx context.Context, e Engine, g graph.Adjacency, p *pattern.Pattern) (uint64, *Stats, error) {
	pl, err := e.PlanPattern(g, p.AsEdgeInduced())
	if err != nil {
		return 0, nil, err
	}
	opts, o := e.ExecConfig()
	return CountViaEdgeFilter(ctx, g, p.NonEdges(), o, func(sink Sink) (*Stats, error) {
		_, st, err := BacktrackCtx(ctx, g, pl, sink, opts, o)
		return st, err
	})
}

// CountViaEdgeFilter counts vertex-induced matches the pre-morphing way
// (Fig. 4d-e, Fig. 14): mine streams the edge-induced matches to the sink
// it is given, and a Filter UDF probes the data graph for an edge between
// every non-adjacent pattern pair of each match, rejecting matches that
// have one. The probes are the data-dependent branches that dominate the
// baseline; they are added to the returned Stats.Branches and published to
// o, and Stats.Matches becomes the surviving count. On interruption the
// count so far comes back with the typed error (BacktrackCtx's
// partial-result contract).
func CountViaEdgeFilter(ctx context.Context, g graph.Adjacency, nonEdges [][2]int, o *obs.Observer, mine func(Sink) (*Stats, error)) (uint64, *Stats, error) {
	type shard struct {
		kept, branches uint64
		_              [48]byte // shards are allocated back to back: no false sharing
	}
	var shards []*shard
	st, err := mine(func(int) Window {
		s := new(shard)
		shards = append(shards, s)
		return func(m []uint32, pos int, tail []uint32) {
		next:
			for _, x := range tail {
				m[pos] = x
				for _, ne := range nonEdges {
					u, v := m[ne[0]], m[ne[1]]
					// A branchy binary-search probe per pair: model its
					// data-dependent branches as log2(min degree).
					s.branches += uint64(bits.Len(uint(min(g.Degree(u), g.Degree(v))))) + 1
					if g.HasEdge(u, v) {
						continue next
					}
				}
				s.kept++
			}
		}
	})
	if err != nil && st == nil {
		return 0, nil, err
	}
	var kept, branches uint64
	for _, s := range shards {
		kept += s.kept
		branches += s.branches
	}
	st.Branches += branches
	st.Matches = kept
	// mine already published its own counters; only the filter UDF's probe
	// branches are new.
	obs.FromContext(ctx, o).Counter(MetricBranches).Add(branches)
	return kept, st, err
}
