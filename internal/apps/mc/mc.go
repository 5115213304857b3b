// Package mc implements Motif Counting: counting the vertex-induced
// matches of every connected pattern of a given size (§2, Fig. 3). Motif
// counting is the best case for Subgraph Morphing (§7.1) because all
// superpatterns are already in the query set — morphing flips the whole
// set to edge-induced variants, eliminating every anti-edge set
// difference, and recovers the vertex-induced counts by inclusion-
// exclusion at conversion time.
package mc

import (
	"context"
	"fmt"

	"morphing/internal/canon"
	"morphing/internal/core"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
)

// Result holds the census: one count per motif.
type Result struct {
	Patterns []*pattern.Pattern // vertex-induced motif patterns
	Counts   []uint64
	Stats    *core.RunStats
}

// CountCtx counts all motifs on `size` vertices (3 to 5 in the paper's
// experiments) in g using the given engine. Morphing is applied unless
// disabled. On interruption it returns a partial Result — Counts is nil but Stats.Partial holds the
// per-alternative counts completed before the abort — together with the
// typed error (engine.ErrCanceled, engine.ErrDeadlineExceeded, or
// *engine.PanicError).
func CountCtx(ctx context.Context, g graph.Adjacency, size int, eng engine.Engine, morph bool) (*Result, error) {
	if size < 3 || size > 5 {
		return nil, fmt.Errorf("mc: motif size %d outside [3,5]", size)
	}
	bases, err := canon.AllConnectedPatterns(size)
	if err != nil {
		return nil, err
	}
	queries := make([]*pattern.Pattern, len(bases))
	for i, b := range bases {
		queries[i] = b.AsVertexInduced()
	}
	r := &core.Runner{Engine: eng, DisableMorphing: !morph, Label: "mc"}
	counts, stats, err := r.CountsCtx(ctx, g, queries)
	if err != nil {
		if engine.Interrupted(err) && stats != nil {
			return &Result{Patterns: queries, Stats: stats}, err
		}
		return nil, err
	}
	return &Result{Patterns: queries, Counts: counts, Stats: stats}, nil
}

// Total returns the sum of all motif counts.
func (r *Result) Total() uint64 {
	var t uint64
	for _, c := range r.Counts {
		t += c
	}
	return t
}
