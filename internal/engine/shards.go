package engine

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"

	"morphing/internal/graph"
	"morphing/internal/obs"
)

// Shards keeps one *T per distinct visitor worker ID, so state a Visitor
// accumulates per worker needs no lock on the per-match path. Engines may
// use any number of worker IDs (see Visitor), so folding an ID into a
// fixed shard count lets two live workers write one shard; here the list
// grows on first sight of an ID instead: growth copies the list under mu
// and publishes the copy, and a worker reads only its own slot, which
// nobody else writes. The zero value is ready to use.
type Shards[T any] struct {
	// New builds a worker's shard on its first match (nil: new(T)).
	New func() *T

	mu   sync.Mutex
	list atomic.Pointer[[]*T]
}

// For returns worker's shard, creating it on first sight. Calls with one
// worker ID must not overlap (they come from one engine worker); distinct
// IDs may.
func (s *Shards[T]) For(worker int) *T {
	if p := s.list.Load(); p != nil && worker < len(*p) && (*p)[worker] != nil {
		return (*p)[worker]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var old []*T
	if p := s.list.Load(); p != nil {
		old = *p
	}
	grown := make([]*T, max(len(old), worker+1))
	copy(grown, old)
	if s.New != nil {
		grown[worker] = s.New()
	} else {
		grown[worker] = new(T)
	}
	s.list.Store(&grown)
	return grown[worker]
}

// Each calls fn on every shard, in worker-ID order. Call it after the
// engine has returned.
func (s *Shards[T]) Each(fn func(*T)) {
	if p := s.list.Load(); p != nil {
		for _, t := range *p {
			if t != nil {
				fn(t)
			}
		}
	}
}

// CountViaEdgeFilter counts vertex-induced matches the pre-morphing way
// (Fig. 4d-e, Fig. 14): mine streams the edge-induced matches to the
// visitor it is given, and a Filter UDF probes the data graph for an edge
// between every non-adjacent pattern pair, rejecting matches that have
// one. The probes are the data-dependent branches that dominate the
// baseline; they are added to the returned Stats.Branches and published
// to o, and Stats.Matches becomes the surviving count. On interruption
// the count so far comes back with the typed error (BacktrackCtx's
// partial-result contract).
func CountViaEdgeFilter(ctx context.Context, g graph.Adjacency, nonEdges [][2]int, o *obs.Observer, mine func(Visitor) (*Stats, error)) (uint64, *Stats, error) {
	type shard struct {
		kept, branches uint64
		_              [48]byte // shards are allocated back to back: no false sharing
	}
	var shards Shards[shard]
	st, err := mine(func(worker int, m []uint32) {
		s := shards.For(worker)
		for _, ne := range nonEdges {
			u, v := m[ne[0]], m[ne[1]]
			// A branchy binary-search probe per pair: model its
			// data-dependent branches as log2(min degree).
			s.branches += uint64(bits.Len(uint(min(g.Degree(u), g.Degree(v))))) + 1
			if g.HasEdge(u, v) {
				return
			}
		}
		s.kept++
	})
	if err != nil && st == nil {
		return 0, nil, err
	}
	var kept, branches uint64
	shards.Each(func(s *shard) {
		kept += s.kept
		branches += s.branches
	})
	st.Branches += branches
	st.Matches = kept
	// mine already published its own counters; only the filter UDF's probe
	// branches are new.
	obs.FromContext(ctx, o).Counter(MetricBranches).Add(0, branches)
	return kept, st, err
}
