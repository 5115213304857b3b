// Package se implements Subgraph Enumeration: streaming every match of a
// set of edge-induced query patterns through a user filter (§7.3). The
// paper's workload filters matches by vertex weight — keep a match when
// the average weight of its vertices lies within one standard deviation
// of the weight distribution's mean — and uses on-the-fly conversion
// (Algorithm 3): morphing mines vertex-induced alternatives with fewer
// matches, so the filter UDF runs far fewer times.
package se

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"morphing/internal/core"
	"morphing/internal/costmodel"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
)

// Filter decides whether a match is delivered. It must be safe for
// concurrent use.
type Filter func(m []uint32) bool

// Result summarizes one enumeration run.
type Result struct {
	// Delivered counts matches that passed the filter, per query.
	Delivered []uint64
	// Filtered counts matches rejected by the filter, per query.
	Filtered []uint64
	// Stats aggregates engine work across all queries and alternatives.
	Stats *engine.Stats
	// Selection is the alternative set mined: every query as itself when
	// morphing is disabled.
	Selection *core.Selection
}

// Options configures EnumerateCtx.
type Options struct {
	// Morph toggles Subgraph Morphing with on-the-fly conversion.
	Morph bool
	// PerMatchCost tells the cost model how expensive the filter UDF is
	// per match; 0 profiles the filter on synthetic matches (§5.2). This
	// is the knob that makes morphing attractive: the paper trades filter
	// invocations for extra set operations (§7.3).
	PerMatchCost float64
}

// EnumerateCtx streams the matches of each edge-induced query through the
// filter, invoking onMatch (which may be nil, and must be safe for
// concurrent use; the match slice is reused) for survivors. With morphing
// enabled the queries are transformed and the alternative streams are
// converted on the fly. On interruption (cancel,
// deadline, or a contained filter/onMatch panic) the partial Result —
// the delivered/filtered tallies accumulated before the abort — is
// returned alongside the typed error; matches already handed to onMatch
// stay delivered.
//
// Each call is one pipeline execution of a core.Runner (Runner.StreamCtx):
// the run is tagged with its ID in the query log and the trace, a fault
// on an mmap-backed graph outside the workers comes back typed, and
// anomalous endings dump the flight recorder.
func EnumerateCtx(ctx context.Context, g graph.Adjacency, eng engine.Engine, queries []*pattern.Pattern, filter Filter, onMatch func(query int, m []uint32), opts Options) (*Result, error) {
	for i, q := range queries {
		if q.Induced() != pattern.EdgeInduced {
			return nil, fmt.Errorf("se: query %d must be edge-induced (on-the-fly conversion is additive)", i)
		}
	}
	r := &core.Runner{Engine: eng, Label: "se", DisableMorphing: !opts.Morph, PerMatchCost: opts.PerMatchCost}
	if opts.Morph && r.PerMatchCost == 0 && len(queries) > 0 {
		r.PerMatchCost = costmodel.ProfileUDF(func(m []uint32) { filter(m) },
			queries[0].N(), 4096, uint32(g.NumVertices()), 1e8)
	}
	// One shard per worker the pass starts, bound before any runs (the
	// engine.Sink contract), keeps the UDF hot path lock-free.
	type shard struct {
		delivered, filtered []uint64 // per query
	}
	var shards []*shard
	// Each alternative is mined exactly once and its stream fans out to every
	// query it feeds. The filter runs on the raw alternative match, BEFORE
	// conversion — it depends only on the matched vertex set, which
	// conversion permutes but never changes (§7.3: "the filter is only
	// dependent on the matched vertices") — so the vertex-induced
	// alternatives' smaller match streams directly cut filter UDF invocations.
	st, err := r.StreamCtx(ctx, g, queries, func(targets []core.StreamTarget) engine.Sink {
		return func(worker int) engine.Window {
			for len(shards) <= worker { // the worker's first sink call makes it
				shards = append(shards, &shard{delivered: make([]uint64, len(queries)), filtered: make([]uint64, len(queries))})
			}
			s, buf := shards[worker], make([]uint32, pattern.MaxVertices) // buf: the converted match
			// The per-match loop: everything a match needs is held in locals.
			return func(m []uint32, pos int, tail []uint32) {
				delivered, filtered, slot := s.delivered, s.filtered, &m[pos]
				for _, v := range tail {
					*slot = v
					if !filter(m) {
						for _, t := range targets {
							filtered[t.Query] += uint64(len(t.Maps))
						}
						continue
					}
					for _, t := range targets {
						converted := buf[:queries[t.Query].N()]
						for _, f := range t.Maps {
							for i, qi := range f {
								converted[i] = m[qi]
							}
							delivered[t.Query]++
							if onMatch != nil {
								onMatch(t.Query, converted)
							}
						}
					}
				}
			}
		}
	})
	if st == nil {
		return nil, err
	}
	res := &Result{
		Delivered: make([]uint64, len(queries)),
		Filtered:  make([]uint64, len(queries)),
		Stats:     &engine.Stats{},
		Selection: st.Selection,
	}
	if st.Mining != nil {
		res.Stats = st.Mining
	}
	for _, s := range shards {
		for qi := range queries {
			res.Delivered[qi] += s.delivered[qi]
			res.Filtered[qi] += s.filtered[qi]
		}
	}
	return res, err
}

// Weights assigns each vertex a pseudo-random weight from a normal
// distribution, deterministically in seed — the paper's SE workload
// (§7.3: "vertex weights were assigned from a normal distribution").
type Weights struct {
	W         []float64
	Mean, Std float64
}

// NewWeights draws per-vertex weights ~ N(mean, std).
func NewWeights(g graph.Adjacency, mean, std float64, seed int64) *Weights {
	r := rand.New(rand.NewSource(seed))
	w := make([]float64, g.NumVertices())
	for i := range w {
		w[i] = mean + std*r.NormFloat64()
	}
	return &Weights{W: w, Mean: mean, Std: std}
}

// WithinOneStd is the paper's filter: keep a match when the average
// weight of its vertices is within one standard deviation of the mean.
func (w *Weights) WithinOneStd(m []uint32) bool {
	sum := 0.0
	for _, v := range m {
		sum += w.W[v]
	}
	avg := sum / float64(len(m))
	return math.Abs(avg-w.Mean) <= w.Std
}
