package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"morphing/internal/canon"
	"morphing/internal/core"
	"morphing/internal/costmodel"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/obs"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// `morphbench trie` compares one pass of the merged plan trie against a
// loop of one-leaf tries (Peregrine's CountAll: the same executor, one
// pattern at a time) on the Fig. 11a alternative sets (each evaluation
// query's morphing winner set) plus the all-4-vertex-motif workloads, and
// records wall time and candidate volume per set as JSON (BENCH_trie.json
// by default). Both columns hoist, collapse and count-only alike, so the
// ratio is what merging itself shares. CI runs it at a small scale as a
// smoke step; the committed artifact tracks the speedup trajectory.

type trieSetResult struct {
	Set             string   `json:"set"`
	Patterns        []string `json:"patterns"`
	TrieNodes       int      `json:"trie_nodes"`
	SharedLevels    int      `json:"shared_levels"`
	MaxSharedPrefix int      `json:"max_shared_prefix"`
	// Wall time, best of the measured repetitions.
	PerPatternNS int64   `json:"per_pattern_ns"`
	TrieNS       int64   `json:"trie_ns"`
	Speedup      float64 `json:"speedup"` // per-pattern / trie
	// Candidate volume summed over levels: the work the shared prefix
	// avoids recomputing.
	PerPatternCandidates uint64 `json:"per_pattern_candidates"`
	TrieCandidates       uint64 `json:"trie_candidates"`
	CountsEqual          bool   `json:"counts_equal"`
}

type trieReport struct {
	Timestamp string          `json:"timestamp"`
	GoVersion string          `json:"go_version"`
	GOARCH    string          `json:"goarch"`
	Graph     string          `json:"graph"`
	Scale     float64         `json:"scale"`
	Threads   int             `json:"threads"`
	Results   []trieSetResult `json:"results"`
}

func cmdTrie(args []string) error {
	fs := flag.NewFlagSet("trie", flag.ContinueOnError)
	out := fs.String("out", "BENCH_trie.json", "output JSON path (- for stdout)")
	graphName := fs.String("graph", "MI", "dataset recipe (MI, MG, PR, OK, FR)")
	scale := fs.Float64("scale", 0.02, "dataset scale factor")
	threads := fs.Int("threads", 0, "engine worker threads (0 = GOMAXPROCS)")
	reps := fs.Int("reps", 3, "repetitions per measurement (best-of)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, err := dataset.ByName(*graphName)
	if err != nil {
		return err
	}
	g, err := rec.Scaled(*scale).Generate()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "== graph %s at scale %v: %d vertices, %d edges\n",
		*graphName, *scale, g.NumVertices(), g.NumEdges())

	sets, err := trieBenchSets(g)
	if err != nil {
		return err
	}
	rep := trieReport{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Graph:     *graphName,
		Scale:     *scale,
		Threads:   *threads,
	}
	for _, s := range sets {
		r, err := benchTrieSet(g, s, *threads, *reps)
		if err != nil {
			return fmt.Errorf("set %s: %w", s.name, err)
		}
		fmt.Fprintf(os.Stderr, "== %-18s %d patterns, %d shared levels (prefix %d): per-pattern %8.2fms, trie %8.2fms, %.2fx, counts equal %v\n",
			r.Set, len(r.Patterns), r.SharedLevels, r.MaxSharedPrefix,
			float64(r.PerPatternNS)/1e6, float64(r.TrieNS)/1e6, r.Speedup, r.CountsEqual)
		rep.Results = append(rep.Results, r)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "== wrote %d trie results to %s\n", len(rep.Results), *out)
	return nil
}

type trieBenchSet struct {
	name     string
	patterns []*pattern.Pattern
}

// trieBenchSets assembles the benchmark workloads: each Fig. 11a query's
// morphing winner set (what Algorithm 1 actually schedules for it on g),
// plus the all-4-vertex-motif sets every multi-pattern system reports.
func trieBenchSets(g graph.Adjacency) ([]trieBenchSet, error) {
	var sets []trieBenchSet
	all4, err := canon.AllConnectedPatterns(4)
	if err != nil {
		return nil, err
	}
	var e4, v4 []*pattern.Pattern
	for _, p := range all4 {
		e4 = append(e4, p.Variant(pattern.EdgeInduced))
		v4 = append(v4, p.Variant(pattern.VertexInduced))
	}
	sets = append(sets,
		trieBenchSet{"4-motifs-edge", e4},
		trieBenchSet{"4-motifs-vertex", v4},
	)
	// The Fig. 11a alternative sets: each vertex-induced query morphed
	// under PolicyEdgeOnly (the paper's setting for engines without
	// anti-edge support), which replaces the query with its edge-induced
	// variant plus superpatterns — the multi-pattern winner sets whose
	// shared prefixes the trie exists to exploit.
	model := costmodel.NewDefault(graph.Summarize(g))
	seen := map[string]bool{}
	for _, np := range pattern.Fig11Patterns() {
		if np.Pattern.N() > 5 {
			continue // p9/p10 are 7-vertex with 20+ alternatives; far past smoke budgets
		}
		q := np.Pattern.AsVertexInduced()
		d, err := core.BuildSDAG([]*pattern.Pattern{q})
		if err != nil {
			return nil, err
		}
		sel, err := core.Select(d, []*pattern.Pattern{q}, core.DefaultCostFunc(model, 0), core.PolicyEdgeOnly, core.SelectOptions{})
		if err != nil {
			return nil, err
		}
		var ps []*pattern.Pattern
		key := ""
		for _, c := range sel.Mine {
			ps = append(ps, c.Pattern)
			key += c.Pattern.String() + "|"
		}
		if len(ps) < 2 || seen[key] {
			continue // unmorphed queries have nothing to share
		}
		seen[key] = true
		sets = append(sets, trieBenchSet{np.Name, ps})
	}
	return sets, nil
}

func benchTrieSet(g graph.Adjacency, s trieBenchSet, threads, reps int) (trieSetResult, error) {
	e := peregrine.New(threads)
	e.Obs = &obs.Observer{Metrics: obs.NewRegistry()} // keep bench noise out of the default registry
	r := trieSetResult{Set: s.name}
	for _, p := range s.patterns {
		r.Patterns = append(r.Patterns, p.String())
	}
	tr, err := engine.BuildTrie(e, g, s.patterns)
	if err != nil {
		return r, err
	}
	r.TrieNodes = tr.Nodes
	r.SharedLevels = tr.SharedLevels
	r.MaxSharedPrefix = tr.MaxSharedPrefix
	opts, o := e.ExecConfig()

	var perCounts, trieCounts []uint64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		counts, st, err := e.CountAll(g, s.patterns)
		if err != nil {
			return r, err
		}
		if ns := time.Since(t0).Nanoseconds(); r.PerPatternNS == 0 || ns < r.PerPatternNS {
			r.PerPatternNS = ns
			r.PerPatternCandidates = sumCandidates(st)
			perCounts = counts
		}

		t0 = time.Now()
		counts, st, err = engine.BacktrackTrie(g, tr, opts, o)
		if err != nil {
			return r, err
		}
		if ns := time.Since(t0).Nanoseconds(); r.TrieNS == 0 || ns < r.TrieNS {
			r.TrieNS = ns
			r.TrieCandidates = sumCandidates(st)
			trieCounts = counts
		}
	}
	if r.TrieNS > 0 {
		r.Speedup = float64(r.PerPatternNS) / float64(r.TrieNS)
	}
	r.CountsEqual = len(perCounts) == len(trieCounts)
	for i := range perCounts {
		if i < len(trieCounts) && perCounts[i] != trieCounts[i] {
			r.CountsEqual = false
		}
	}
	if !r.CountsEqual {
		return r, fmt.Errorf("trie counts diverge from per-pattern counts: %v vs %v", trieCounts, perCounts)
	}
	return r, nil
}

func sumCandidates(st *engine.Stats) uint64 {
	var total uint64
	if st == nil {
		return 0
	}
	for _, l := range st.Levels {
		total += l.Candidates
	}
	return total
}
