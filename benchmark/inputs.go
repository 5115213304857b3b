package main

import (
	"context"
	"fmt"
	"math/rand"

	"morphing/internal/apps/fsm"
	"morphing/internal/apps/mc"
	"morphing/internal/apps/sc"
	"morphing/internal/canon"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/graphpi"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/server"
)

// rewireShare is the share of the edges between two vertices of at most
// mean degree that the seed re-draws. The recipe's own seed is left
// alone, and so are the hubs: re-seeding the whole Holme-Kim growth moves
// the top degrees by up to 2x and the query time by 5-10% between seeds,
// and rewiring a fiftieth of all edges uniformly still moved it by about
// 5% (both measured, README "Seeds") — variation that would have to be
// paid for in wider bounds. Rewiring the sparse part makes every seed's
// answers different and leaves the work alike.
const rewireShare = 0.1

// makeGraph generates the workload's data graph for seed.
func makeGraph(p params, quick bool, seed int64) (*graph.Graph, error) {
	rec, err := dataset.ByName(p.recipe)
	if err != nil {
		return nil, err
	}
	base, err := rec.Scaled(p.size(quick)).Generate()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	n := base.NumVertices()
	sparse := func(v uint32) bool { return float64(base.Degree(v)) <= base.AvgDegree() }
	var pool []uint32 // the sparse vertices, to draw new endpoints from
	for v := 0; v < n; v++ {
		if sparse(uint32(v)) {
			pool = append(pool, uint32(v))
		}
	}
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for _, v := range base.Neighbors(uint32(u)) {
			if uint32(u) >= v {
				continue
			}
			if sparse(uint32(u)) && sparse(v) && rng.Float64() < rewireShare {
				if x, y := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]; x != y {
					b.AddEdge(x, y)
				}
				continue
			}
			b.AddEdge(uint32(u), v)
		}
	}
	if base.Labeled() {
		b.SetLabels(base.Labels())
	}
	return b.Build()
}

func newEngine(name string, instrument bool) engine.Engine {
	if name == "graphpi" {
		return &graphpi.Engine{Instrument: instrument}
	}
	return &peregrine.Engine{Instrument: instrument}
}

func resolve(names []string) ([]*pattern.Pattern, error) {
	ps := make([]*pattern.Pattern, len(names))
	for i, n := range names {
		p, err := server.ResolvePattern(n)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return ps, nil
}

// answer is a workload's checked output: pattern (canonical codec text)
// to count, or for FSM frequent pattern to MNI support.
type answer map[string]uint64

func (a answer) equal(b answer) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func countAnswer(ps []*pattern.Pattern, counts []uint64) answer {
	a := make(answer, len(ps))
	for i, p := range ps {
		a[p.String()] = counts[i]
	}
	return a
}

// runApp sends one complete query through the app's public entry point
// and returns its answer with the counters the app returns.
func runApp(ctx context.Context, p params, g graph.Adjacency, eng engine.Engine, morph bool) (answer, *appStats, error) {
	switch p.app {
	case "mc4":
		res, err := mc.CountCtx(ctx, g, 4, eng, morph)
		if err != nil {
			return nil, nil, err
		}
		return countAnswer(res.Patterns, res.Counts), &appStats{queries: res.Patterns, runs: []*runStats{res.Stats}}, nil
	case "sc":
		qs, err := resolve(scQueries)
		if err != nil {
			return nil, nil, err
		}
		counts, st, err := sc.CountCtx(ctx, g, qs, eng, morph)
		if err != nil {
			return nil, nil, err
		}
		return countAnswer(qs, counts), &appStats{queries: qs, runs: []*runStats{st}}, nil
	case "fsm":
		freq, st, err := fsm.MineCtx(ctx, g, eng, fsm.Options{
			Morph: morph, MaxEdges: 3, MinSupport: g.NumVertices() / fsmSupportDivisor})
		if err != nil {
			return nil, nil, err
		}
		a := make(answer, len(freq))
		for _, f := range freq {
			a[canon.Canonicalize(f.Pattern).String()] = uint64(f.Support)
		}
		return a, &appStats{runs: st.Runs, fsm: st, frequent: len(freq)}, nil
	}
	return nil, nil, fmt.Errorf("unknown app %q", p.app)
}

// reference computes a batch workload's expected answer by another route
// than the one being timed: the plain in-memory graph, the Peregrine
// model, and morphing switched the other way.
func reference(ctx context.Context, p params, g *graph.Graph) (answer, error) {
	a, _, err := runApp(ctx, p, g, peregrine.New(0), !p.morph)
	return a, err
}
