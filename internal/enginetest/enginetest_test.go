// Package enginetest cross-validates the four engine models against the
// brute-force oracle and against each other: identical counts and
// identical unique-match streams on seeded random graphs across every
// connected pattern up to 5 vertices, labeled and unlabeled, both
// semantics where supported.
package enginetest

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"morphing/internal/aggr"
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

func allEngines() []engine.Engine {
	return []engine.Engine{
		peregrine.New(3),
		autozero.New(3),
		graphpi.New(3),
		bigjoin.New(3),
	}
}

// runnerRoutes are the ways the suites count a query set through the
// morphing pipeline: one pass of the Runner's merged trie, and the one-leaf
// reference — the Runner's own selection, each mined pattern counted alone
// by the engine's CountCtx, then converted —, each on the whole graph or
// once per shard.
var runnerRoutes = []struct {
	name    string
	oneLeaf bool
	shards  int
}{
	{"merged-trie", false, 0},
	{"one-leaf-loop", true, 0},
	{"sharded", true, 3},
	{"sharded-trie", false, 3},
}

// routeCounts counts qs on g with e along a route of runnerRoutes.
func routeCounts(ctx context.Context, e engine.Engine, g graph.Adjacency, qs []*pattern.Pattern, oneLeaf bool, shards int) ([]uint64, error) {
	r := &core.Runner{Engine: e, Shards: shards}
	if !oneLeaf {
		counts, _, err := r.CountsCtx(ctx, g, qs)
		return counts, err
	}
	sel, err := r.Transform(g, qs, aggr.Count{})
	if err != nil {
		return nil, err
	}
	parts := []graph.Adjacency{g}
	if shards > 1 {
		sgs, err := graph.Partition(g, shards)
		if err != nil {
			return nil, err
		}
		parts = parts[:0]
		for _, sg := range sgs {
			parts = append(parts, sg)
		}
	}
	mined := make([]aggr.Value, len(sel.Mine))
	for i, c := range sel.Mine {
		var sum uint64
		for _, sg := range parts {
			n, _, err := e.CountCtx(ctx, sg, c.Pattern)
			if err != nil {
				return nil, err
			}
			sum += n
		}
		mined[i] = sum
	}
	vals, err := sel.Convert(aggr.Count{}, mined)
	if err != nil {
		return nil, err
	}
	counts := make([]uint64, len(vals))
	for i, v := range vals {
		counts[i] = v.(uint64)
	}
	return counts, nil
}

// suiteShapes and suiteTiers span the table every oracle suite of the
// package runs over. The shapes differ in what a plain graph serves by
// itself: ER(45) has no vertex at graph.DefaultHubThreshold, the hubbed graph
// has three, so its plain tier probes hub bitmaps. The compressed tier
// (block size 8, so even 45-vertex rows span several blocks) decodes rows
// into pins and serves neither bitmaps nor label rows.
//
// A hub of degree 64 is the centre of 600 k four-stars: sweeps over 5-vertex
// patterns, which the brute-force oracle has to enumerate, stop at four
// vertices where hasHubs says so.
var suiteShapes = []suiteShape{{"er45", 45, 7, 0}, {"hubbed", 80, 3, 3}}

type suiteShape struct {
	name      string
	n         int
	avgDegree float64
	hubs      int
}

func (s suiteShape) gen(labels int, seed int64) (*graph.Graph, error) {
	return dataset.Hubbed(s.n, s.avgDegree, s.hubs, labels, seed)
}

var suiteTiers = []struct {
	name string
	of   func(*graph.Graph) (graph.Adjacency, error)
}{
	{"plain", func(g *graph.Graph) (graph.Adjacency, error) { return g, nil }},
	{"compressed", func(g *graph.Graph) (graph.Adjacency, error) { return graph.Compress(g, 8) }},
}

// forEachSuite runs f as one subtest per shape × tier: g is the seeded graph
// as the tier serves it, plain the same graph for the brute-force oracle
// (refmatch stays on *graph.Graph deliberately — the oracle must not depend
// on the tier under test). After the compressed tier has been mined, its
// Verify must still find every hot row equal to a fresh decode: no engine
// wrote through a row the tier lent it.
func forEachSuite(t *testing.T, seed int64, labels int, f func(t *testing.T, g graph.Adjacency, plain *graph.Graph)) {
	t.Helper()
	for _, shape := range suiteShapes {
		plain, err := shape.gen(labels, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, tier := range suiteTiers {
			g, err := tier.of(plain)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(shape.name+"/"+tier.name, func(t *testing.T) {
				f(t, g, plain)
				if c, ok := g.(*graph.CompressedGraph); ok {
					if err := c.Verify(); err != nil {
						t.Fatalf("after mining: %v", err)
					}
				}
			})
		}
	}
}

func hasHubs(g *graph.Graph) bool {
	return g.MaxDegree() >= graph.DefaultHubThreshold(g.NumVertices())
}

// noHubRows serves a plain graph without its bitmap rows, to the pass and
// to every worker view: the merge/gallop route over the same CSR (label
// rows stay, as on any plain graph).
type noHubRows struct{ *graph.Graph }

func (noHubRows) HubBits(uint32) []uint64 { return nil }
func (g noHubRows) View() graph.Adjacency { return g }

// TestEnginesHubIndexInvariance: what a planner's passes find on the hubbed
// shape does not depend on whether the graph serves bitmap rows — plain (the
// rows a *graph.Graph builds by itself) vs the same graph with HubBits
// hidden vs the compressed tier vs the brute-force oracle — as counts of a
// merged pass, as the match streams of a merged streaming pass and as MNI
// tables, at 1 and 4 threads. Bitmap probes run on the plain graph and
// nowhere else; on the labeled graph the labeled patterns put label slices
// and hub bitmaps into one pass.
func TestEnginesHubIndexInvariance(t *testing.T) {
	unlabeled := []*pattern.Pattern{
		pattern.Triangle(),
		pattern.FourCycle(),
		pattern.FourCycle().AsVertexInduced(),
		pattern.FourClique(),
		pattern.TailedTriangle(),
		pattern.TailedTriangle().AsVertexInduced(),
	}
	labeled := []*pattern.Pattern{
		pattern.MustNew(3, pattern.Wedge().Edges(), pattern.WithLabels([]int32{0, 1, pattern.Unlabeled})),
		pattern.MustNew(4, pattern.Path(4).Edges(), pattern.WithLabels([]int32{0, 1, 1, 0})),
		pattern.MustNew(4, pattern.TailedTriangle().Edges(), pattern.WithLabels([]int32{1, 0, 2, 1})).AsVertexInduced(),
	}
	for _, labels := range []int{0, 3} {
		shapes := unlabeled
		if labels > 0 {
			shapes = append(slices.Clone(unlabeled), labeled...)
		}
		plain, err := suiteShapes[1].gen(labels, 17)
		if err != nil {
			t.Fatal(err)
		}
		if plain.HubBits(uint32(plain.NumVertices()-1)) == nil {
			t.Fatal("the hubbed shape has no hub at the default threshold")
		}
		compressed, err := graph.Compress(plain, 8)
		if err != nil {
			t.Fatal(err)
		}
		tiers := []struct {
			name string
			g    graph.Adjacency
		}{{"hub-rows", plain}, {"hidden", noHubRows{plain}}, {"compressed", compressed}}
		for _, e := range allEngines() {
			var ps []*pattern.Pattern
			for _, p := range shapes {
				if canPlan(e, p) {
					ps = append(ps, p)
				}
			}
			var edgeInduced []*pattern.Pattern // the MNI route's queries
			counts := make([]uint64, len(ps))
			matches := make([]map[uint64]int, len(ps))
			for i, p := range ps {
				matches[i] = map[uint64]int{}
				for _, m := range refmatch.Matches(plain, p) {
					matches[i][matchKey(m)]++
				}
				counts[i] = uint64(len(matches[i]))
				if p.Induced() == pattern.EdgeInduced {
					edgeInduced = append(edgeInduced, p)
				}
			}
			for _, tier := range tiers {
				tr, err := engine.BuildTrie(e, tier.g, ps)
				if err != nil {
					t.Fatal(err)
				}
				for _, threads := range []int{1, 4} {
					where := fmt.Sprintf("labels=%d %s %s threads=%d", labels, e.Name(), tier.name, threads)
					opts, o := e.ExecConfig()
					opts.Threads = threads
					got, st, err := engine.BacktrackTrieCtx(context.Background(), tier.g, tr, opts, o)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if !slices.Equal(got, counts) {
						t.Errorf("%s: counted %v, oracle %v", where, got, counts)
					}
					if bitset := st.SetBitsetOps > 0; bitset != (tier.name == "hub-rows") {
						t.Errorf("%s: %d bitmap operations", where, st.SetBitsetOps)
					}
					streamed, misplaced := streamTrie(t, tier.g, plain, e, ps, threads)
					if misplaced != 0 || !reflect.DeepEqual(streamed, matches) {
						t.Errorf("%s: the streams differ from the oracle's, or %d tuples are no embeddings", where, misplaced)
					}
				}
				if !e.SupportsInduced(pattern.VertexInduced) {
					continue // the MNI pipeline needs native vertex-induced matching
				}
				tables, _, err := (&core.Runner{Engine: e}).MNITablesCtx(context.Background(), tier.g, edgeInduced)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range edgeInduced {
					if !tables[i].Equal(mniOracle(plain, p)) {
						t.Errorf("labels=%d %s %s: MNI table of %v differs from the oracle's", labels, e.Name(), tier.name, p)
					}
				}
			}
		}
	}
}

func TestEngineNamesAndCapabilities(t *testing.T) {
	caps := map[string]bool{ // native vertex-induced support
		"Peregrine": true,
		"AutoZero":  true,
		"GraphPi":   false,
		"BigJoin":   false,
	}
	for _, e := range allEngines() {
		want, ok := caps[e.Name()]
		if !ok {
			t.Fatalf("unexpected engine name %q", e.Name())
		}
		if e.SupportsInduced(pattern.VertexInduced) != want {
			t.Errorf("%s: SupportsInduced(V) = %v, want %v", e.Name(), !want, want)
		}
		if !e.SupportsInduced(pattern.EdgeInduced) {
			t.Errorf("%s: must support edge-induced", e.Name())
		}
	}
}

func TestAllEnginesMatchOracleCounts(t *testing.T) {
	forEachSuite(t, 21, 0, func(t *testing.T, g graph.Adjacency, plain *graph.Graph) {
		maxK := 5
		if testing.Short() || hasHubs(plain) {
			maxK = 4
		}
		for k := 2; k <= maxK; k++ {
			ps, err := canon.AllConnectedPatterns(k)
			if err != nil {
				t.Fatal(err)
			}
			for _, base := range ps {
				for _, iv := range []pattern.Induced{pattern.EdgeInduced, pattern.VertexInduced} {
					p := base.Variant(iv)
					want := refmatch.Count(plain, p)
					for _, e := range allEngines() {
						if !e.SupportsInduced(iv) && !p.IsClique() {
							if _, _, err := e.CountCtx(context.Background(), g, p); !errors.Is(err, engine.ErrInducedUnsupported) {
								t.Errorf("%s: expected ErrInducedUnsupported for %v, got %v", e.Name(), p, err)
							}
							continue
						}
						got, _, err := e.CountCtx(context.Background(), g, p)
						if err != nil {
							t.Fatalf("%s: %v", e.Name(), err)
						}
						if got != want {
							t.Errorf("%s pattern=%v: count %d, oracle %d", e.Name(), p, got, want)
						}
					}
				}
			}
		}
	})
}

func TestAllEnginesLabeled(t *testing.T) {
	forEachSuite(t, 33, 3, func(t *testing.T, g graph.Adjacency, plain *graph.Graph) {
		shapes := []*pattern.Pattern{pattern.Triangle(), pattern.TailedTriangle(), pattern.FourCycle()}
		for _, shape := range shapes {
			labels := make([]int32, shape.N())
			for i := range labels {
				labels[i] = int32(i % 2)
			}
			p := pattern.MustNew(shape.N(), shape.Edges(), pattern.WithLabels(labels))
			want := refmatch.Count(plain, p)
			for _, e := range allEngines() {
				got, _, err := e.CountCtx(context.Background(), g, p)
				if err != nil {
					t.Fatalf("%s: %v", e.Name(), err)
				}
				if got != want {
					t.Errorf("%s labeled %v: count %d, oracle %d", e.Name(), p, got, want)
				}
			}
		}
	})
}

// isEmbedding reports whether m, read in pattern-vertex order, is an
// embedding of p in g: labels met, every pattern edge present, every
// anti-edge (explicit, or implied by vertex-induced semantics) absent.
func isEmbedding(g *graph.Graph, p *pattern.Pattern, m []uint32) bool {
	for u := 0; u < p.N(); u++ {
		if l := p.Label(u); l != pattern.Unlabeled && g.Label(m[u]) != l {
			return false
		}
		for v := u + 1; v < p.N(); v++ {
			has := g.HasEdge(m[u], m[v])
			if p.HasEdge(u, v) && !has || p.IsAntiEdge(u, v) && has || m[u] == m[v] {
				return false
			}
		}
	}
	return true
}

// TestAllEnginesStreamIdenticalMatchSets is the stream identity: on every
// engine the multiset of delivered tuples equals the oracle's — each
// unique match exactly once — and every tuple is indexed by pattern
// vertex, whatever order the engine's plan binds them in. The patterns
// cover both semantics, labels, explicit anti-edges and a streaming last
// level under every kind of level above it (CI reruns the suite under
// -race; forEachSuite spans the tiers).
func TestAllEnginesStreamIdenticalMatchSets(t *testing.T) {
	forEachSuite(t, 8, 2, func(t *testing.T, g graph.Adjacency, plain *graph.Graph) {
		ps := append(antiPatterns(t),
			pattern.Edge(),
			pattern.Triangle(),
			pattern.TailedTriangle(),
			pattern.ChordalFourCycle(),
			pattern.FourCycle().AsVertexInduced(),
			pattern.FourStar().AsVertexInduced(),
			pattern.House(),
			pattern.MustNew(3, pattern.Wedge().Edges(), pattern.WithLabels([]int32{0, 1, pattern.Unlabeled})),
			pattern.MustNew(4, pattern.Path(4).Edges(), pattern.WithLabels([]int32{0, 1, 1, 0})),
		)
		for _, p := range ps {
			auts := canon.Automorphisms(p)
			want := map[string]int{}
			for _, m := range refmatch.Matches(plain, p) {
				want[fmt.Sprint(m)]++
			}
			for _, e := range allEngines() {
				if !canPlan(e, p) || p.HasExplicitAntiEdges() && !e.SupportsInduced(pattern.VertexInduced) {
					continue
				}
				var mu sync.Mutex
				got := map[string]int{}
				misplaced := 0
				st, err := e.MatchCtx(context.Background(), g, p, func(_ int, m []uint32) {
					ok := isEmbedding(plain, p, m)
					k := fmt.Sprint(canon.CanonicalMatch(p, m, auts))
					mu.Lock()
					got[k]++
					if !ok {
						misplaced++
					}
					mu.Unlock()
				})
				if err != nil {
					t.Fatalf("%s: %v", e.Name(), err)
				}
				if misplaced != 0 {
					t.Errorf("%s pattern %v: %d delivered tuples are no embedding in pattern-vertex order", e.Name(), p, misplaced)
				}
				if len(got) != len(want) {
					t.Errorf("%s pattern %v: %d distinct matches, oracle %d", e.Name(), p, len(got), len(want))
				}
				for k, n := range want {
					if got[k] != n {
						t.Errorf("%s pattern %v: oracle match %s delivered %d times", e.Name(), p, k, got[k])
					}
				}
				if st.Matches != uint64(len(want)) {
					t.Errorf("%s pattern %v: stats report %d matches, oracle %d", e.Name(), p, st.Matches, len(want))
				}
			}
		}
	})
}

func TestCountAllConsistentWithCount(t *testing.T) {
	forEachSuite(t, 55, 0, func(t *testing.T, g graph.Adjacency, plain *graph.Graph) {
		ps := []*pattern.Pattern{
			pattern.Triangle(),
			pattern.FourCycle(),
			pattern.TailedTriangle().AsVertexInduced(),
			pattern.ChordalFourCycle(),
			pattern.FourClique(),
		}
		for _, e := range allEngines() {
			var supported []*pattern.Pattern
			for _, p := range ps {
				if e.SupportsInduced(p.Induced()) || p.IsClique() {
					supported = append(supported, p)
				}
			}
			counts, _, err := e.CountAllCtx(context.Background(), g, supported)
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			for i, p := range supported {
				want, _, err := e.CountCtx(context.Background(), g, p)
				if err != nil {
					t.Fatal(err)
				}
				if counts[i] != want {
					t.Errorf("%s: CountAll[%v]=%d, Count=%d", e.Name(), p, counts[i], want)
				}
			}
		}
	})
}

func TestAutoZeroMergedScheduleSharesWork(t *testing.T) {
	g, err := dataset.MiCo().Scaled(0.01).Generate()
	if err != nil {
		t.Fatal(err)
	}
	az := autozero.New(2)
	// The six 4-vertex motifs share deep loop prefixes; a merged schedule
	// must do less set-operation work than six independent runs.
	base, err := canon.AllConnectedPatterns(4)
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]*pattern.Pattern, len(base))
	for i, p := range base {
		ps[i] = p.AsVertexInduced()
	}
	_, merged, err := az.CountAllCtx(context.Background(), g, ps)
	if err != nil {
		t.Fatal(err)
	}
	var separate engine.Stats
	for _, p := range ps {
		_, st, err := az.CountCtx(context.Background(), g, p)
		if err != nil {
			t.Fatal(err)
		}
		separate.Add(st)
	}
	if merged.SetElems >= separate.SetElems {
		t.Errorf("merged schedule scanned %d set elements, separate %d — merging saved nothing",
			merged.SetElems, separate.SetElems)
	}
}

func TestFilterUDFCountsMatchNativeVertexInduced(t *testing.T) {
	forEachSuite(t, 77, 0, func(t *testing.T, g graph.Adjacency, plain *graph.Graph) {
		per := peregrine.New(2)
		gp := graphpi.New(2)
		bj := bigjoin.New(2)
		for _, base := range []*pattern.Pattern{
			pattern.TailedTriangle(),
			pattern.FourCycle(),
			pattern.ChordalFourCycle(),
			pattern.FourStar(),
		} {
			pV := base.AsVertexInduced()
			want, _, err := per.CountCtx(context.Background(), g, pV)
			if err != nil {
				t.Fatal(err)
			}
			gotGP, stGP, err := engine.CountVertexInducedViaFilterCtx(context.Background(), gp, g, pV)
			if err != nil {
				t.Fatal(err)
			}
			if gotGP != want {
				t.Errorf("GraphPi filter count for %v = %d, want %d", pV, gotGP, want)
			}
			if stGP.Branches == 0 || stGP.UDFCalls == 0 {
				t.Errorf("GraphPi filter did not record UDF work: %+v", stGP)
			}
			gotBJ, stBJ, err := engine.CountVertexInducedViaFilterCtx(context.Background(), bj, g, pV)
			if err != nil {
				t.Fatal(err)
			}
			if gotBJ != want {
				t.Errorf("BigJoin filter count for %v = %d, want %d", pV, gotBJ, want)
			}
			if stBJ.Branches == 0 {
				t.Errorf("BigJoin filter did not record branches")
			}
		}
	})
}

func TestVertexInducedCliqueAcceptedEverywhere(t *testing.T) {
	forEachSuite(t, 91, 0, func(t *testing.T, g graph.Adjacency, plain *graph.Graph) {
		p := pattern.FourClique().AsVertexInduced()
		want := refmatch.Count(plain, p)
		for _, e := range allEngines() {
			got, _, err := e.CountCtx(context.Background(), g, p)
			if err != nil {
				t.Fatalf("%s rejected vertex-induced clique: %v", e.Name(), err)
			}
			if got != want {
				t.Errorf("%s: clique count %d, want %d", e.Name(), got, want)
			}
		}
	})
}

func TestEnginesOnSkewedGraph(t *testing.T) {
	// Power-law graphs exercise the high-degree paths (hub-heavy
	// adjacency lists, deep intersections).
	g, err := dataset.MiCo().Scaled(0.008).Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*pattern.Pattern{
		pattern.Triangle(),
		pattern.FourCycle().AsVertexInduced(),
		pattern.ChordalFourCycle(),
	} {
		var want uint64
		for i, e := range allEngines() {
			if !e.SupportsInduced(p.Induced()) && !p.IsClique() {
				continue
			}
			got, _, err := e.CountCtx(context.Background(), g, p)
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			if i == 0 {
				want = got
			} else if got != want {
				t.Errorf("%s disagrees on %v: %d vs %d", e.Name(), p, got, want)
			}
		}
	}
}
