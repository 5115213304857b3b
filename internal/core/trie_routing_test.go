package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/graphpi"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/refmatch"
)

func routingGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := dataset.ErdosRenyi(60, 6, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPlanTrieDecisions pins the route and its reasons, since EXPLAIN
// output and the run report surface them verbatim: a winner set is one
// trie whatever its size and sharing, only an empty set is no pass, and an
// engine that cannot plan the set fails with its own error.
func TestPlanTrieDecisions(t *testing.T) {
	g := routingGraph(t)
	motifs := []*pattern.Pattern{
		pattern.Triangle(), pattern.FourStar(), pattern.FourClique(),
	}

	t.Run("planner", func(t *testing.T) {
		r := &Runner{Engine: peregrine.New(1)}
		dec, tr, err := r.planTrie(g, motifs)
		if err != nil || !dec.Used || tr == nil {
			t.Fatalf("used=%v reason=%q", dec.Used, dec.Reason)
		}
		if dec.MaxSharedPrefix < 2 || dec.Patterns != len(motifs) || dec.Nodes != tr.Nodes || dec.SharedLevels != tr.SharedLevels {
			t.Fatalf("decision stats %+v disagree with trie %s", dec, tr)
		}
	})

	t.Run("single pattern is a one-leaf trie", func(t *testing.T) {
		r := &Runner{Engine: peregrine.New(1)}
		dec, tr, err := r.planTrie(g, motifs[2:])
		if err != nil || !dec.Used || tr == nil || dec.Nodes != 4 || dec.SharedLevels != 0 || dec.Patterns != 1 {
			t.Fatalf("used=%v decision %+v", dec.Used, dec)
		}
	})

	t.Run("label-disjoint set is one multi-root pass", func(t *testing.T) {
		a := pattern.MustNew(3, [][2]int{{0, 1}, {0, 2}, {1, 2}},
			pattern.WithLabels([]int32{1, 1, 1}))
		b := pattern.MustNew(3, [][2]int{{0, 1}, {0, 2}},
			pattern.WithLabels([]int32{2, 2, 2}))
		r := &Runner{Engine: peregrine.New(1)}
		dec, tr, err := r.planTrie(g, []*pattern.Pattern{a, b})
		if err != nil || !dec.Used || tr == nil || len(tr.Roots) != 2 || dec.MaxSharedPrefix != 0 || dec.SharedLevels != 0 {
			t.Fatalf("used=%v decision %+v", dec.Used, dec)
		}
	})

	t.Run("empty set is no pass", func(t *testing.T) {
		r := &Runner{Engine: peregrine.New(1)}
		dec, tr, err := r.planTrie(g, nil)
		if err != nil || dec.Used || tr != nil || dec.Reason != "empty pattern set" {
			t.Fatalf("used=%v reason=%q", dec.Used, dec.Reason)
		}
		st := &RunStats{}
		if counts, err := r.mine(context.Background(), g, nil, nil, st); counts != nil || err != nil || st.Mining == nil || st.Mining.TriePasses != 0 {
			t.Fatalf("mine of an empty set: counts %v, err %v, stats %+v", counts, err, st.Mining)
		}
	})

	t.Run("planning failure is the engine's own error", func(t *testing.T) {
		r := &Runner{Engine: graphpi.New(1)}
		ps := []*pattern.Pattern{pattern.FourCycle().AsVertexInduced()}
		if _, tr, err := r.planTrie(g, ps); tr != nil || !errors.Is(err, engine.ErrInducedUnsupported) {
			t.Fatalf("planTrie reported %v, want ErrInducedUnsupported", err)
		}
		if counts, err := r.mine(context.Background(), g, []Choice{{Pattern: ps[0]}}, nil, &RunStats{}); counts != nil || !errors.Is(err, engine.ErrInducedUnsupported) {
			t.Fatalf("mine reported %v, want ErrInducedUnsupported", err)
		}
	})
}

// TestRunnerRoutesCountsMatch runs queries end to end, with and without
// morphing: query counts must equal the brute-force oracle, the run stats
// must record one pass of the merged trie, and each mined pattern's count
// from that pass must equal its one-leaf reference, the engine's own
// CountCtx on the pattern alone.
func TestRunnerRoutesCountsMatch(t *testing.T) {
	g := routingGraph(t)
	queries := []*pattern.Pattern{
		pattern.FourCycle().AsVertexInduced(),
		pattern.FourStar().AsVertexInduced(),
		pattern.TailedTriangle(),
	}
	for _, baseline := range []bool{false, true} {
		for _, single := range []bool{false, true} {
			qs := queries
			if single {
				qs = queries[:1]
			}
			r := &Runner{Engine: peregrine.New(2), DisableMorphing: baseline, Explain: true}
			got, st, err := r.CountsCtx(context.Background(), g, qs)
			if err != nil {
				t.Fatal(err)
			}
			if st.Trie == nil || !st.Trie.Used {
				t.Fatalf("run recorded decision %+v", st.Trie)
			}
			if st.Mining.TriePasses != 1 || len(st.Mining.TrieNodes) != st.Trie.Nodes {
				t.Fatalf("run recorded %d passes, %d node rows for a %d-node trie",
					st.Mining.TriePasses, len(st.Mining.TrieNodes), st.Trie.Nodes)
			}
			// The baseline mines exactly the queries, none of them morphed.
			if baseline && (len(st.Selection.Mine) != len(qs) ||
				slices.ContainsFunc(st.Selection.Queries, func(q Query) bool { return q.Morphed })) {
				t.Fatalf("baseline run mined %d patterns for %d queries, or morphed one", len(st.Selection.Mine), len(qs))
			}
			for i, c := range st.Selection.Mine {
				alone, _, err := r.Engine.CountCtx(context.Background(), g, c.Pattern)
				if err != nil {
					t.Fatal(err)
				}
				if st.PerPattern[i].Matches != alone {
					t.Fatalf("baseline=%v %v: merged trie %d, one-leaf trie %d", baseline, c.Pattern, st.PerPattern[i].Matches, alone)
				}
			}
			for i, q := range qs {
				if want := refmatch.Count(g, q); got[i] != want {
					t.Fatalf("baseline=%v %v: merged trie %d, oracle %d", baseline, q, got[i], want)
				}
			}
		}
	}
}

// TestMNIRunsRecordTheRoute: the MNI pipeline takes counting's decision and
// reports it the same way — RunStats.Trie plus the trie_decision event:
// a level is one streaming pass, explained or not (an explained run adds
// its calibration rows, nothing else). Tables agree with each other and
// with each query's one-leaf reference, MineMNITable.
func TestMNIRunsRecordTheRoute(t *testing.T) {
	g := routingGraph(t)
	queries := []*pattern.Pattern{pattern.FourCycle(), pattern.TailedTriangle(), pattern.Wedge()}
	var want []string
	for _, r := range []*Runner{{Engine: peregrine.New(2)}, {Engine: peregrine.New(2), Explain: true}} {
		name := fmt.Sprintf("explain=%v", r.Explain)
		tables, st, err := r.MNITablesCtx(context.Background(), g, queries)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Trie == nil || !st.Trie.Used || !strings.Contains(st.Trie.Reason, "in one pass") {
			t.Errorf("%s: decision %+v, want one pass", name, st.Trie)
		}
		logged := false
		for _, e := range st.Events {
			logged = logged || e.Name == "trie_decision" && e.Attrs["used"] == true
		}
		if !logged {
			t.Errorf("%s: no trie_decision event with used=true in %v", name, eventNames(st.Events))
		}
		perPattern := 0
		if r.Explain {
			perPattern = len(st.Selection.Mine)
		}
		if st.Mining.TriePasses != 1 || len(st.PerPattern) != perPattern {
			t.Errorf("%s: %d passes, %d calibration rows; want 1, %d", name, st.Mining.TriePasses, len(st.PerPattern), perPattern)
		}
		var got []string
		for _, tbl := range tables {
			got = append(got, tbl.String())
		}
		if want == nil {
			for _, q := range queries {
				tbl, _, err := MineMNITable(context.Background(), r.Engine, g, q)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, tbl.String())
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: tables %v, one-leaf references %v", name, got, want)
		}
	}
}
