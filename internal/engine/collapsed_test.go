package engine_test

import (
	"context"
	"testing"

	"morphing/internal/autozero"
	"morphing/internal/bigjoin"
	"morphing/internal/canon"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/graphpi"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/plan"
	"morphing/internal/refmatch"
)

// collapsedGraphs are small graphs aimed at the cases of a collapsed leaf's
// count: a hub of degree 79 whose other neighbours hang off a few spokes
// (its row is the base of leaves whose parent has two or three
// candidates), two cliques sharing a vertex with interleaved ids (bound
// vertices among the candidates and inside windows), and a random graph.
func collapsedGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	var hub, cliques [][2]uint32
	for v := uint32(1); v < 80; v++ {
		hub = append(hub, [2]uint32{0, v})
	}
	hub = append(hub, [2]uint32{1, 2}, [2]uint32{2, 3}, [2]uint32{78, 79}, [2]uint32{5, 79}, [2]uint32{3, 80})
	for _, c := range [][]uint32{{0, 2, 4, 6, 8, 10}, {6, 1, 3, 5, 7}} {
		for i := range c {
			for j := i + 1; j < len(c); j++ {
				cliques = append(cliques, [2]uint32{c[i], c[j]})
			}
		}
	}
	gs := map[string]*graph.Graph{}
	for name, edges := range map[string][][2]uint32{"hub": hub, "cliques": cliques} {
		n := uint32(0)
		for _, e := range edges {
			n = max(n, e[0]+1, e[1]+1)
		}
		g, err := graph.FromEdges(int(n), edges, nil)
		if err != nil {
			t.Fatal(err)
		}
		gs[name] = g
	}
	er, err := dataset.ErdosRenyi(40, 6, 0, 77)
	if err != nil {
		t.Fatal(err)
	}
	gs["er"] = er
	return gs
}

// handStars are two plans for the 3-star in order [0 1 2 3] that no
// planner writes, merged into one trie whose level-2 node branches: one
// orders the leaves downwards, so the last leaf's window has its high end
// on the parent's vertex; the other holds the last leaf both above and
// below the one before it — both ends on the parent's vertex, and no match.
func handStars(t *testing.T) *plan.Trie {
	t.Helper()
	var plans []*plan.Plan
	for _, conds := range [][][2]int{{{3, 2}, {2, 1}}, {{1, 2}, {2, 3}, {3, 2}}} {
		pl, err := plan.BuildWithConditions(pattern.FourStar(), []int{0, 1, 2, 3}, conds)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, pl)
	}
	tr, err := plan.MergePlans(plans)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestCollapsedLeafShapes runs the four planners' tries for the 4-vertex
// patterns of either semantics and a sample of 5-vertex ones over
// collapsedGraphs, on one worker and on three, with handStars beside
// them, and checks every count against the brute-force
// oracle. It fails unless every case of a collapsed leaf's count ran
// (engine.RecordCollapsedShapes): each window shape, a bound vertex among
// the parent's candidates, a fixed vertex inside the window and a hub base
// the rank sum gallops through.
func TestCollapsedLeafShapes(t *testing.T) {
	var sets [][]*pattern.Pattern
	for _, iv := range []pattern.Induced{pattern.EdgeInduced, pattern.VertexInduced} {
		var four, five []*pattern.Pattern
		for k := 4; k <= 5; k++ {
			ps, err := canon.AllConnectedPatterns(k)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range ps {
				if k == 4 {
					four = append(four, p.Variant(iv))
				} else if i%4 == 0 {
					five = append(five, p.Variant(iv))
				}
			}
		}
		sets = append(sets, four, five)
	}
	planners := []engine.Engine{peregrine.New(1), autozero.New(1), graphpi.New(1), bigjoin.New(1)}
	seen, stop := engine.RecordCollapsedShapes()
	defer stop()
	for gname, g := range collapsedGraphs(t) {
		oracle := map[*pattern.Pattern]uint64{}
		var tries []*plan.Trie
		for _, pl := range planners {
			for i, set := range sets {
				if i%2 == 1 && gname == "hub" {
					continue // five vertices on a hub of degree 79: too many matches for the oracle
				}
				var ps []*pattern.Pattern
				for _, p := range set {
					if pl.SupportsInduced(p.Induced()) || p.IsClique() {
						ps = append(ps, p)
					}
				}
				if len(ps) == 0 {
					continue
				}
				tr, err := engine.BuildTrie(pl, g, ps)
				if err != nil {
					t.Fatal(err)
				}
				tries = append(tries, tr)
			}
		}
		hand := handStars(t)
		oracle[hand.Plans[1].Pattern] = 0
		for _, tr := range append(tries, hand) {
			for _, threads := range []int{1, 3} {
				got, _, err := engine.BacktrackTrieCtx(context.Background(), g, tr, engine.ExecOptions{Threads: threads}, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i, pl := range tr.Plans {
					want, ok := oracle[pl.Pattern]
					if !ok {
						want = refmatch.Count(g, pl.Pattern)
						oracle[pl.Pattern] = want
					}
					if got[i] != want {
						t.Errorf("%s threads=%d %v order %v: trie %d, oracle %d", gname, threads, pl.Pattern, pl.Order, got[i], want)
					}
				}
			}
		}
	}
	tally := seen()
	for _, shape := range []string{engine.ShapeLowDep, engine.ShapeHighDep, engine.ShapeBothDep, engine.ShapeNeitherDep,
		engine.ShapeBoundCand, engine.ShapeFixedInside, engine.ShapeGallopBase} {
		if tally[shape] == 0 {
			t.Errorf("no collapsed leaf counted with %s (tally %v)", shape, tally)
		}
	}
	t.Log(tally)
}
