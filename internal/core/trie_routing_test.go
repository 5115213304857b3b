package core

import (
	"context"
	"errors"
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

// noPlanEngine hides the Planner surface of a real engine, standing in
// for execution models that cannot expose exploration plans: the runner
// hands it the winner set pattern by pattern (CountCtx), a loop of
// one-leaf tries.
type noPlanEngine struct {
	engine.Engine
}

func routingGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := dataset.ErdosRenyi(60, 6, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPlanTrieDecisions pins the route and its reasons, since EXPLAIN
// output and the run report surface them verbatim: a Planner's winner set
// is one trie whatever its size and sharing, an engine without plans is
// mined pattern by pattern, and a Planner that cannot plan the set fails
// with its own error.
func TestPlanTrieDecisions(t *testing.T) {
	g := routingGraph(t)
	motifs := []*pattern.Pattern{
		pattern.Triangle(), pattern.FourStar(), pattern.FourClique(),
	}

	t.Run("planner", func(t *testing.T) {
		r := &Runner{Engine: peregrine.New(1)}
		dec, tr, planner, err := r.planTrie(g, motifs)
		if err != nil || !dec.Used || tr == nil || planner == nil {
			t.Fatalf("used=%v reason=%q", dec.Used, dec.Reason)
		}
		if dec.MaxSharedPrefix < 2 || dec.Patterns != len(motifs) || dec.Nodes != tr.Nodes || dec.SharedLevels != tr.SharedLevels {
			t.Fatalf("decision stats %+v disagree with trie %s", dec, tr)
		}
	})

	t.Run("single pattern is a one-leaf trie", func(t *testing.T) {
		r := &Runner{Engine: peregrine.New(1)}
		dec, tr, _, err := r.planTrie(g, motifs[2:])
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
		dec, tr, _, err := r.planTrie(g, []*pattern.Pattern{a, b})
		if err != nil || !dec.Used || tr == nil || len(tr.Roots) != 2 || dec.MaxSharedPrefix != 0 || dec.SharedLevels != 0 {
			t.Fatalf("used=%v decision %+v", dec.Used, dec)
		}
	})

	t.Run("non-planner engine", func(t *testing.T) {
		r := &Runner{Engine: noPlanEngine{peregrine.New(1)}}
		dec, tr, _, err := r.planTrie(g, motifs)
		if err != nil || dec.Used || tr != nil || !strings.Contains(dec.Reason, "no plans") {
			t.Fatalf("used=%v reason=%q", dec.Used, dec.Reason)
		}
	})

	t.Run("planning failure is the engine's own error", func(t *testing.T) {
		r := &Runner{Engine: graphpi.New(1)}
		ps := []*pattern.Pattern{pattern.FourCycle().AsVertexInduced()}
		if _, tr, _, err := r.planTrie(g, ps); tr != nil || !errors.Is(err, engine.ErrInducedUnsupported) {
			t.Fatalf("planTrie reported %v, want ErrInducedUnsupported", err)
		}
		if counts, err := r.mine(context.Background(), g, []Choice{{Pattern: ps[0]}}, nil, &RunStats{}); counts != nil || !errors.Is(err, engine.ErrInducedUnsupported) {
			t.Fatalf("mine reported %v, want ErrInducedUnsupported", err)
		}
	})
}

// TestRunnerRoutesCountsMatch runs the same queries through both routes
// end to end — a Planner's merged trie and a plan-less engine's loop of
// one-leaf tries — with and without morphing: query counts must equal the
// brute-force oracle, and the run stats must record the route taken.
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
			merged := &Runner{Engine: peregrine.New(2), DisableMorphing: baseline}
			looped := &Runner{Engine: noPlanEngine{peregrine.New(2)}, DisableMorphing: baseline}

			got, mst, err := merged.CountsCtx(context.Background(), g, qs)
			if err != nil {
				t.Fatal(err)
			}
			if mst.Trie == nil || !mst.Trie.Used {
				t.Fatalf("planner run recorded decision %+v", mst.Trie)
			}
			if mst.Mining.TriePasses != 1 || len(mst.Mining.TrieNodes) != mst.Trie.Nodes {
				t.Fatalf("planner run recorded %d passes, %d node rows for a %d-node trie",
					mst.Mining.TriePasses, len(mst.Mining.TrieNodes), mst.Trie.Nodes)
			}
			// The baseline mines exactly the queries, none of them morphed.
			if baseline && (len(mst.Selection.Mine) != len(qs) ||
				slices.ContainsFunc(mst.Selection.Queries, func(q Query) bool { return q.Morphed })) {
				t.Fatalf("baseline run mined %d patterns for %d queries, or morphed one", len(mst.Selection.Mine), len(qs))
			}

			per, lst, err := looped.CountsCtx(context.Background(), g, qs)
			if err != nil {
				t.Fatal(err)
			}
			if lst.Trie == nil || lst.Trie.Used {
				t.Fatalf("plan-less run recorded decision %+v", lst.Trie)
			}
			if mined := len(lst.Selection.Mine); lst.Mining.TriePasses != uint64(mined) {
				t.Fatalf("plan-less run recorded %d executor passes for %d mined patterns", lst.Mining.TriePasses, mined)
			}
			for i, q := range qs {
				want := refmatch.Count(g, q)
				if got[i] != want || per[i] != want {
					t.Fatalf("baseline=%v %v: merged trie %d, loop of one-leaf tries %d, oracle %d", baseline, q, got[i], per[i], want)
				}
			}
		}
	}
}

// TestMNIRunsRecordTheRoute: the MNI pipeline takes counting's decision and
// reports it the same way — RunStats.Trie plus the trie_decision event —
// on all three outcomes: a Planner's level is one streaming pass, explained
// or not (an explained run adds its calibration rows, nothing else), a
// plan-less engine streams pattern by pattern. Tables agree throughout.
func TestMNIRunsRecordTheRoute(t *testing.T) {
	g := routingGraph(t)
	queries := []*pattern.Pattern{pattern.FourCycle(), pattern.TailedTriangle(), pattern.Wedge()}
	var want []string
	for _, tc := range []struct {
		name   string
		r      *Runner
		used   bool
		reason string
	}{
		{"planner", &Runner{Engine: peregrine.New(2)}, true, "in one pass"},
		{"explain", &Runner{Engine: peregrine.New(2), Explain: true}, true, "in one pass"},
		{"no plans", &Runner{Engine: noPlanEngine{peregrine.New(2)}}, false, "no plans"},
	} {
		tables, st, err := tc.r.MNITablesCtx(context.Background(), g, queries)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.Trie == nil || st.Trie.Used != tc.used || !strings.Contains(st.Trie.Reason, tc.reason) {
			t.Errorf("%s: decision %+v, want used=%v and %q in the reason", tc.name, st.Trie, tc.used, tc.reason)
		}
		logged := false
		for _, e := range st.Events {
			logged = logged || e.Name == "trie_decision" && e.Attrs["used"] == tc.used
		}
		if !logged {
			t.Errorf("%s: no trie_decision event with used=%v in %v", tc.name, tc.used, eventNames(st.Events))
		}
		passes, perPattern := uint64(len(st.Selection.Mine)), 0
		if tc.used {
			passes = 1
		}
		if tc.r.Explain {
			perPattern = len(st.Selection.Mine)
		}
		if st.Mining.TriePasses != passes || len(st.PerPattern) != perPattern {
			t.Errorf("%s: %d passes, %d calibration rows; want %d, %d", tc.name, st.Mining.TriePasses, len(st.PerPattern), passes, perPattern)
		}
		var got []string
		for _, tbl := range tables {
			got = append(got, tbl.String())
		}
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Errorf("%s: tables %v, planner route %v", tc.name, got, want)
		}
	}
}
