// Package cf implements Clique Finding, one of the graph mining
// applications the paper lists (§2): locating and counting complete
// subgraphs. Cliques sit at the apex of every S-DAG component and have no
// anti-edges, so they are both variants at once — the one pattern family
// Subgraph Morphing never rewrites, and the terminal case of every
// conversion chain.
package cf

import (
	"context"
	"fmt"

	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// CountCtx returns the number of k-cliques in g; on interruption the
// partial count is returned alongside the typed error.
func CountCtx(ctx context.Context, g graph.Adjacency, k int, eng engine.Engine) (uint64, *engine.Stats, error) {
	if k < 2 || k > pattern.MaxVertices {
		return 0, nil, fmt.Errorf("cf: clique size %d outside [2,%d]", k, pattern.MaxVertices)
	}
	return eng.CountCtx(ctx, g, pattern.Clique(k))
}

// MaxCliqueSizeCtx returns the size of the largest clique in g with at
// most maxK vertices, using early-terminating existence probes from large
// to small (each probe stops at the first witness). Returns 1 for edgeless
// graphs. Interruption aborts the binary search mid-probe; no partial answer is returned because an
// unfinished probe leaves the bracket unresolved.
func MaxCliqueSizeCtx(ctx context.Context, g graph.Adjacency, maxK int, eng *peregrine.Engine) (int, error) {
	if maxK < 2 {
		return 0, fmt.Errorf("cf: maxK %d too small", maxK)
	}
	if maxK > pattern.MaxVertices {
		maxK = pattern.MaxVertices
	}
	if g.NumEdges() == 0 {
		return 1, nil
	}
	// Binary search over clique size: existence is monotone.
	lo, hi := 2, maxK // lo always satisfiable (there is an edge)
	for lo < hi {
		mid := (lo + hi + 1) / 2
		ok, _, err := peregrine.ExistsCtx(ctx, eng, g, pattern.Clique(mid))
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, nil
}

// CensusCtx counts cliques of every size from 2 up to maxK, stopping early
// when a size has none (larger sizes cannot exist either). On interruption
// the census
// completed so far (fully counted sizes only) is returned alongside the
// typed error; the size that was interrupted mid-count is excluded.
func CensusCtx(ctx context.Context, g graph.Adjacency, maxK int, eng engine.Engine) (map[int]uint64, error) {
	if maxK < 2 {
		return nil, fmt.Errorf("cf: maxK %d too small", maxK)
	}
	if maxK > pattern.MaxVertices {
		maxK = pattern.MaxVertices
	}
	out := map[int]uint64{}
	for k := 2; k <= maxK; k++ {
		c, _, err := CountCtx(ctx, g, k, eng)
		if err != nil {
			if engine.Interrupted(err) {
				return out, err
			}
			return nil, err
		}
		if c == 0 {
			break
		}
		out[k] = c
	}
	return out, nil
}
