package enginetest

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"morphing/internal/aggr"
	"morphing/internal/apps/fsm"
	"morphing/internal/autozero"
	"morphing/internal/bigjoin"
	"morphing/internal/canon"
	"morphing/internal/core"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/graphpi"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/refmatch"
)

// mniOracle is the full-MNI table by definition: every oracle match under
// every automorphism.
func mniOracle(g *graph.Graph, p *pattern.Pattern) *aggr.Table {
	tbl := aggr.NewTable(p.N())
	auts := canon.Automorphisms(p)
	for _, m := range refmatch.Matches(g, p) {
		tbl.InsertAll(m, auts)
	}
	return tbl
}

// TestMNITablesEqualInsertAllOracle is the saturation identity end to
// end: the MNI sink records one representative per match and applies the
// automorphisms once per pattern, and the result must equal the oracle
// column for column — on every engine (4 threads, so run it with -race),
// through the per-pattern route and the batched morphing route, on
// labeled and unlabeled graphs, for every pattern of up to 4 vertices and a 5-vertex sample.
// The MNI pipeline needs native vertex-induced matching (core.policyFor),
// so the two edge-only models take the per-pattern route alone.
// forEachSuite repeats it on every shape and tier.
func TestMNITablesEqualInsertAllOracle(t *testing.T) {
	engines := []engine.Engine{peregrine.New(4), autozero.New(4), graphpi.New(4), bigjoin.New(4)}
	r := rand.New(rand.NewSource(77))
	for _, numLabels := range []int{0, 3} {
		forEachSuite(t, 60+int64(numLabels), numLabels, func(t *testing.T, g graph.Adjacency, plain *graph.Graph) {
			for k := 2; k <= 5 && !(k == 5 && hasHubs(plain)); k++ {
				shapes, err := canon.AllConnectedPatterns(k)
				if err != nil {
					t.Fatal(err)
				}
				var queries []*pattern.Pattern
				for i, shape := range shapes {
					if k == 5 && i%4 != 0 {
						continue
					}
					q := shape
					if numLabels > 0 {
						// Labels from the graph's alphabet, a wildcard now and
						// then.
						labels := make([]int32, k)
						for v := range labels {
							if labels[v] = int32(r.Intn(numLabels + 1)); labels[v] == int32(numLabels) {
								labels[v] = pattern.Unlabeled
							}
						}
						q = pattern.MustNew(k, shape.Edges(), pattern.WithLabels(labels))
					}
					queries = append(queries, q.AsEdgeInduced())
				}
				want := make([]*aggr.Table, len(queries))
				for i, q := range queries {
					want[i] = mniOracle(plain, q)
				}
				for _, e := range engines {
					for i, q := range queries {
						got, _, err := core.MineMNITable(context.Background(), e, g, q)
						if err != nil {
							t.Fatalf("%s %v: %v", e.Name(), q, err)
						}
						if !got.Equal(want[i]) {
							t.Errorf("%s per-pattern %v: %v, oracle %v", e.Name(), q, got, want[i])
						}
					}
					if !e.SupportsInduced(pattern.VertexInduced) {
						continue
					}
					tables, _, err := (&core.Runner{Engine: e}).MNITablesCtx(context.Background(), g, queries)
					if err != nil {
						t.Fatalf("%s: %v", e.Name(), err)
					}
					for i, q := range queries {
						if !tables[i].Equal(want[i]) {
							t.Errorf("%s MNITables %v: %v, oracle %v", e.Name(), q, tables[i], want[i])
						}
					}
				}
			}
		})
	}
}

// fsmLevels returns the candidate set of every level of a 3-edge FSM run
// on g: the pattern sets a real query hands MNITablesCtx, hundreds of
// labeled patterns sharing prefixes.
func fsmLevels(t testing.TB, g *graph.Graph, minSupport int) [][]*pattern.Pattern {
	t.Helper()
	_, st, err := fsm.MineCtx(context.Background(), g, peregrine.New(2), fsm.Options{MaxEdges: 3, MinSupport: minSupport})
	if err != nil {
		t.Fatal(err)
	}
	levels := make([][]*pattern.Pattern, len(st.Runs))
	for i, run := range st.Runs {
		for _, q := range run.Selection.Queries {
			levels[i] = append(levels[i], q.Pattern)
		}
	}
	return levels
}

// TestMergedMNIRouteEqualsPerPatternAndOracle is the differential test of
// the one-pass-per-level route: over random labeled graphs (Erdős–Rényi
// and the MI recipe at tiny scale) and every FSM level's real candidate
// set, the tables of one merged streaming pass (MatchTrieCtx, a sink per
// plan binding a table per worker, filled by InsertTail) equal the
// per-pattern core.MineMNITable tables (a match per Insert) and the
// refmatch + InsertAll oracle, on all four engines, the plain and the
// compressed tier, 1 and 4 threads. The engines that match vertex-induced
// patterns natively also run the level through MNITablesCtx, which must
// take the merged route: one executor pass for the whole level.
func TestMergedMNIRouteEqualsPerPatternAndOracle(t *testing.T) {
	er, err := dataset.ErdosRenyi(70, 6, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	mi, err := dataset.MiCo().Scaled(0.0012).Generate()
	if err != nil {
		t.Fatal(err)
	}
	for gi, plain := range []*graph.Graph{er, mi} {
		compressed, err := graph.Compress(plain, 8)
		if err != nil {
			t.Fatal(err)
		}
		levels := fsmLevels(t, plain, plain.NumVertices()/12)
		if len(levels) != 3 || len(levels[2]) < 10 {
			t.Fatalf("graph %d: FSM levels %d, last with %d candidates: the recipe no longer exercises a merged level", gi, len(levels), len(levels[len(levels)-1]))
		}
		for li, ps := range levels {
			want := make([]*aggr.Table, len(ps))
			for i, p := range ps {
				want[i] = mniOracle(plain, p)
			}
			for tier, g := range map[string]graph.Adjacency{"plain": plain, "compressed": compressed} {
				for _, threads := range []int{1, 4} {
					for _, e := range []engine.Engine{peregrine.New(threads), autozero.New(threads), graphpi.New(threads), bigjoin.New(threads)} {
						name := fmt.Sprintf("graph %d level %d %s %s threads=%d", gi, li+1, tier, e.Name(), threads)
						tr, err := engine.BuildTrie(e, g, ps)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						perWorker := make([]workerTables, len(ps))
						sinks := make([]engine.Sink, len(ps))
						for i, p := range ps {
							perWorker[i].width = p.N()
							sinks[i] = func(int) engine.Window { return perWorker[i].bind().InsertTail }
						}
						opts, o := e.ExecConfig()
						_, st, err := engine.MatchTrieCtx(context.Background(), g, tr, sinks, opts, o)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if st.TriePasses != 1 || st.TriePatterns != uint64(len(ps)) {
							t.Fatalf("%s: %d passes of %d patterns: not the merged route", name, st.TriePasses, st.TriePatterns)
						}
						for i, p := range ps {
							merged := perWorker[i].merged(p)
							single, _, err := core.MineMNITable(context.Background(), e, g, p)
							if err != nil {
								t.Fatalf("%s %v: %v", name, p, err)
							}
							if !merged.Equal(want[i]) || !single.Equal(want[i]) {
								t.Errorf("%s %v: merged pass %v, per pattern %v, oracle %v", name, p, merged, single, want[i])
							}
						}
						if !e.SupportsInduced(pattern.VertexInduced) {
							continue
						}
						tables, rs, err := (&core.Runner{Engine: e, DisableMorphing: li%2 == 1}).MNITablesCtx(context.Background(), g, ps)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if rs.Trie == nil || !rs.Trie.Used || rs.Mining.TriePasses != 1 {
							t.Fatalf("%s: MNITables decision %+v, %d passes", name, rs.Trie, rs.Mining.TriePasses)
						}
						for i, p := range ps {
							if !tables[i].Equal(want[i]) {
								t.Errorf("%s MNITables %v: %v, oracle %v", name, p, tables[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// workerTables is one pattern's MNI tables in a streaming pass, one per
// worker the pass binds, in worker-ID order.
type workerTables struct {
	width  int
	tables []*aggr.Table
}

// bind adds the next worker's table.
func (w *workerTables) bind() *aggr.Table {
	t := aggr.NewTable(w.width)
	w.tables = append(w.tables, t)
	return t
}

// merged is the pattern's table: the workers' merged, saturated under p's
// automorphisms.
func (w *workerTables) merged(p *pattern.Pattern) *aggr.Table {
	out := aggr.NewTable(w.width)
	for _, t := range w.tables {
		out.Merge(t)
	}
	out.Saturate(canon.Automorphisms(p))
	return out
}

// TestWindowRouteExcludesBoundVertices drives the window route of a
// streaming pass (a bound engine.Sink, each worker's table filled by
// aggr.Table.InsertTail) on labeled patterns whose last level carries the
// label of a vertex bound above it: A–B–A and A–A–A, where symmetry and
// adjacency keep the bound vertex out of the window, and A–B–A–B and a
// triangle A–A–B with an A tail on B, where only the bound-vertex
// exclusion does. On every engine at 1 and 4 threads, every suite
// shape and tier, one merged pass must hand over tails that hold no vertex
// of their match's prefix and add up to the oracle's match counts, and
// fill tables equal to the InsertAll oracle; MNITablesCtx, whose MNI sink
// takes the same route, must agree on the engines that run it.
func TestWindowRouteExcludesBoundVertices(t *testing.T) {
	labeled := func(n int, edges [][2]int, labels ...int32) *pattern.Pattern {
		return pattern.MustNew(n, edges, pattern.WithLabels(labels)).AsEdgeInduced()
	}
	queries := []*pattern.Pattern{
		labeled(3, [][2]int{{0, 1}, {1, 2}}, 0, 1, 0),
		labeled(3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, 0, 0, 0),
		labeled(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, 0, 1, 0, 1),
		labeled(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}}, 0, 0, 1, 0),
	}
	forEachSuite(t, 39, 2, func(t *testing.T, g graph.Adjacency, plain *graph.Graph) {
		want := make([]*aggr.Table, len(queries))
		matches := make([]uint64, len(queries))
		for i, q := range queries {
			want[i], matches[i] = mniOracle(plain, q), uint64(len(refmatch.Matches(plain, q)))
		}
		for _, threads := range []int{1, 4} {
			for _, e := range []engine.Engine{peregrine.New(threads), autozero.New(threads), graphpi.New(threads), bigjoin.New(threads)} {
				name := fmt.Sprintf("%s threads=%d", e.Name(), threads)
				tr, err := engine.BuildTrie(e, g, queries)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				perWorker := make([]workerTables, len(queries))
				tails := make([][]*[2]uint64, len(queries)) // per worker: matches handed over, tail vertices found in their prefix
				sinks := make([]engine.Sink, len(queries))
				for i, q := range queries {
					perWorker[i].width = q.N()
					sinks[i] = func(int) engine.Window {
						tbl, seen := perWorker[i].bind(), new([2]uint64)
						tails[i] = append(tails[i], seen)
						return func(m []uint32, pos int, tail []uint32) {
							seen[0] += uint64(len(tail))
							for j, u := range m {
								if _, found := slices.BinarySearch(tail, u); found && j != pos {
									seen[1]++
								}
							}
							tbl.InsertTail(m, pos, tail)
						}
					}
				}
				opts, o := e.ExecConfig()
				if _, _, err := engine.MatchTrieCtx(context.Background(), g, tr, sinks, opts, o); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i, q := range queries {
					var seen [2]uint64
					for _, s := range tails[i] {
						seen[0], seen[1] = seen[0]+s[0], seen[1]+s[1]
					}
					got := perWorker[i].merged(q)
					if seen[0] != matches[i] || seen[1] != 0 || !got.Equal(want[i]) {
						t.Errorf("%s %v: %d matches handed over (oracle %d), %d of them a prefix vertex; table %v, oracle %v", name, q, seen[0], matches[i], seen[1], got, want[i])
					}
				}
				if !e.SupportsInduced(pattern.VertexInduced) {
					continue
				}
				tables, _, err := (&core.Runner{Engine: e}).MNITablesCtx(context.Background(), g, queries)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i, q := range queries {
					if !tables[i].Equal(want[i]) {
						t.Errorf("%s MNITables %v: %v, oracle %v", name, q, tables[i], want[i])
					}
				}
			}
		}
	})
}
