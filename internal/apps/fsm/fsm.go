// Package fsm implements Frequent Subgraph Mining: level-wise exploration
// of labeled edge-induced patterns whose minimum-node-image (MNI) support
// [8] crosses a threshold (§2, Fig. 3, Fig. 9). FSM is the paper's
// UDF-bound application: each match feeds an MNI table, so morphing wins
// by steering expensive patterns toward vertex-induced variants with
// fewer matches — and therefore fewer UDF invocations (§7.2).
package fsm

import (
	"context"
	"fmt"
	"sort"

	"morphing/internal/canon"
	"morphing/internal/core"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
)

// Options configures a mining run.
type Options struct {
	// MaxEdges bounds pattern growth: k-FSM in the paper mines patterns
	// with up to k edges (3-FSM explores the three 3-edge topologies).
	MaxEdges int
	// MinSupport is the MNI support threshold.
	MinSupport int
	// Morph toggles Subgraph Morphing.
	Morph bool
}

// Frequent is one output pattern with its support.
type Frequent struct {
	Pattern *pattern.Pattern
	Support int
}

// Stats aggregates mining work across all levels.
type Stats struct {
	Levels     int
	Candidates int
	Mining     engine.Stats
	Runs       []*core.RunStats
}

// MineCtx runs level-wise FSM on g: frequent single-edge patterns are
// extended one edge at a time (both closing edges and new labeled
// vertices), candidates are deduplicated canonically, and each level's
// batch is evaluated through the morphing pipeline (or directly when
// morphing is off) — on an engine that exposes its plans as one streaming
// pass per level, the candidates' shared labeled prefixes enumerated once
// (core.Runner.MNITablesCtx). The dynamic, data-dependent query sets are
// exactly why pattern transformation must run at runtime (§5).
//
// On interruption the frequent patterns
// confirmed by fully completed levels are returned alongside the typed
// error (the interrupted level's partial tables cannot prove support, so
// they are discarded); Stats covers all work done including the
// interrupted level's RunStats.
func MineCtx(ctx context.Context, g graph.Adjacency, eng engine.Engine, opts Options) ([]Frequent, *Stats, error) {
	return mine(ctx, g, eng, opts, extend)
}

// mine is MineCtx over a candidate generator: extend, or in the tests its
// unpruned form.
func mine(ctx context.Context, g graph.Adjacency, eng engine.Engine, opts Options, extend func(frequent []*pattern.Pattern, labels []int32) []*pattern.Pattern) ([]Frequent, *Stats, error) {
	if opts.MaxEdges < 1 {
		return nil, nil, fmt.Errorf("fsm: MaxEdges must be positive")
	}
	if opts.MinSupport < 1 {
		return nil, nil, fmt.Errorf("fsm: MinSupport must be positive")
	}
	runner := &core.Runner{
		Engine:          eng,
		DisableMorphing: !opts.Morph,
		// The paper's per-match hint for the MNI UDF: merging MNI tables
		// costs O(|V(G)|) (§5.2).
		PerMatchCost: float64(g.NumVertices()) / 1000,
		Label:        "fsm",
	}
	stats := &Stats{}

	labels := frequentLabels(g, opts.MinSupport)
	candidates := seedPatterns(g, labels)
	var frequent []Frequent

	for level := 1; level <= opts.MaxEdges && len(candidates) > 0; level++ {
		stats.Levels++
		stats.Candidates += len(candidates)
		tables, run, err := runner.MNITablesCtx(ctx, g, candidates)
		if err != nil {
			if run != nil {
				stats.Runs = append(stats.Runs, run)
				if run.Mining != nil {
					stats.Mining.Add(run.Mining)
				}
			}
			if engine.Interrupted(err) {
				return frequent, stats, err
			}
			return nil, nil, err
		}
		stats.Runs = append(stats.Runs, run)
		if run.Mining != nil {
			stats.Mining.Add(run.Mining)
		}
		// A level's candidates are pairwise non-isomorphic and have one
		// edge more than the level before: no pattern is frequent twice.
		var survivors []*pattern.Pattern
		for i, tbl := range tables {
			if sup := tbl.Support(); sup >= opts.MinSupport {
				survivors = append(survivors, candidates[i])
				frequent = append(frequent, Frequent{Pattern: candidates[i], Support: sup})
			}
		}
		if level == opts.MaxEdges {
			break
		}
		candidates = extend(survivors, labels)
	}
	sort.Slice(frequent, func(i, j int) bool {
		if frequent[i].Pattern.EdgeCount() != frequent[j].Pattern.EdgeCount() {
			return frequent[i].Pattern.EdgeCount() < frequent[j].Pattern.EdgeCount()
		}
		return frequent[i].Support > frequent[j].Support
	})
	return frequent, stats, nil
}

// frequentLabels returns the labels whose vertex frequency alone could
// support a frequent pattern (an admissible pruning: MNI support is
// bounded by vertex counts per label). Unlabeled graphs yield the single
// wildcard label.
func frequentLabels(g graph.Adjacency, minSupport int) []int32 {
	if !g.Labeled() {
		return []int32{pattern.Unlabeled}
	}
	freq := map[int32]int{}
	for v := 0; v < g.NumVertices(); v++ {
		freq[g.Label(uint32(v))]++
	}
	var out []int32
	for l, c := range freq {
		if c >= minSupport {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// seedPatterns builds the level-1 candidates: one single-edge pattern per
// unordered frequent label pair that actually occurs in g.
func seedPatterns(g graph.Adjacency, labels []int32) []*pattern.Pattern {
	ok := map[int32]bool{}
	for _, l := range labels {
		ok[l] = true
	}
	type pair struct{ a, b int32 }
	present := map[pair]bool{}
	for v := 0; v < g.NumVertices(); v++ {
		lv := g.Label(uint32(v))
		if !ok[lv] {
			continue
		}
		for _, u := range g.Neighbors(uint32(v)) {
			lu := g.Label(u)
			if !ok[lu] || lv > lu {
				continue
			}
			present[pair{lv, lu}] = true
		}
	}
	pairs := make([]pair, 0, len(present))
	for p := range present {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	out := make([]*pattern.Pattern, 0, len(pairs))
	for _, p := range pairs {
		// MustNew is safe here: a 2-vertex single-edge pattern with a
		// 2-element label slice is valid for any label values.
		out = append(out, pattern.MustNew(2, [][2]int{{0, 1}},
			pattern.WithLabels([]int32{p.a, p.b})))
	}
	return out
}

// extend produces the next level's candidates from this level's frequent
// patterns: every one-edge extension, closing a non-edge or attaching a
// new vertex with a frequent label, deduplicated canonically and kept only
// if every connected subpattern with one edge less is itself among the
// frequent patterns (Apriori: MNI support is anti-monotone, so one
// infrequent subpattern makes the candidate infrequent, and the previous
// level's tables have already said which those are).
func extend(frequent []*pattern.Pattern, labels []int32) []*pattern.Pattern {
	isFrequent := make(map[uint64]bool, len(frequent))
	for _, p := range frequent {
		isFrequent[canon.StructureID(p)] = true
	}
	type candidate struct {
		p  *pattern.Pattern
		id uint64
	}
	seen := map[uint64]bool{}
	var out []candidate
	// add files q, the extension of a frequent pattern by the edge {u,v}.
	add := func(q *pattern.Pattern, u, v int) {
		c, id := canon.Canonical(q)
		if seen[id] {
			return
		}
		seen[id] = true
		for _, e := range q.Edges() {
			if e == [2]int{u, v} {
				continue // q without it is the pattern it came from
			}
			if sub := withoutEdge(q, e); sub != nil && !isFrequent[canon.StructureID(sub)] {
				return
			}
		}
		out = append(out, candidate{c, id})
	}
	for _, p := range frequent {
		for _, ne := range p.NonEdges() {
			if q, err := p.WithExtraEdge(ne[0], ne[1]); err == nil {
				add(q, ne[0], ne[1])
			}
		}
		for u := 0; u < p.N(); u++ {
			for _, l := range labels {
				if q, err := p.WithPendant(u, l); err == nil {
					add(q, u, p.N())
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	ps := make([]*pattern.Pattern, len(out))
	for i, c := range out {
		ps[i] = c.p
	}
	return ps
}

// withoutEdge returns q less the edge e, and less the vertex that leaves
// alone; nil if the rest falls apart. q has at least two edges.
func withoutEdge(q *pattern.Pattern, e [2]int) *pattern.Pattern {
	for _, v := range e {
		if q.Degree(v) == 1 {
			sub, _ := q.WithoutVertex(v) // nil on error
			return sub
		}
	}
	if sub, err := q.WithoutEdge(e[0], e[1]); err == nil && sub.IsConnected() {
		return sub
	}
	return nil
}
