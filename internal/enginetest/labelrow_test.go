package enginetest

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"morphing/internal/aggr"
	"morphing/internal/canon"
	"morphing/internal/core"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/refmatch"
)

// noLabelRows serves a plain graph without its LabelRow method, to the
// pass and to every worker view: labeled levels scan and filter, the route
// every tier took before label rows and the decoding tiers still take.
type noLabelRows struct{ graph.Adjacency }

func (n noLabelRows) View() graph.Adjacency { return noLabelRows{n.Adjacency.View()} }

// labelRowSets returns, per semantics, one pattern set per connected
// structure of up to four vertices holding every labeling of it over the
// alphabet — merged, a set is one trie whose labeled levels are label
// siblings under shared parents, as in an FSM level; vertex-induced sets add
// Disconnect operands, and a wildcard in the alphabet the raw bases of
// unlabeled ancestors, which a labeled descendant can only scan — plus a set
// of randomly labeled 5-vertex structures, whose bases hoist across more
// than one frame.
func labelRowSets(t testing.TB, alphabet []int32) map[string][]*pattern.Pattern {
	t.Helper()
	r := rand.New(rand.NewSource(18))
	sets := map[string][]*pattern.Pattern{}
	for _, iv := range []pattern.Induced{pattern.EdgeInduced, pattern.VertexInduced} {
		for k := 2; k <= 5; k++ {
			shapes, err := canon.AllConnectedPatterns(k)
			if err != nil {
				t.Fatal(err)
			}
			for si, shape := range shapes {
				if k == 5 {
					labels := make([]int32, k)
					for v := range labels {
						labels[v] = alphabet[r.Intn(len(alphabet))]
					}
					name := fmt.Sprintf("5-%v", iv)
					sets[name] = append(sets[name], pattern.MustNew(k, shape.Edges(), pattern.WithLabels(labels), pattern.WithInduced(iv)))
					continue
				}
				name := fmt.Sprintf("%d.%d-%v", k, si, iv)
				labels := make([]int32, k)
				for code := range intPow(len(alphabet), k) {
					for v := range labels {
						labels[v], code = alphabet[code%len(alphabet)], code/len(alphabet)
					}
					sets[name] = append(sets[name], pattern.MustNew(k, shape.Edges(), pattern.WithLabels(labels), pattern.WithInduced(iv)))
				}
			}
		}
	}
	return sets
}

func intPow(b, e int) int {
	n := 1
	for range e {
		n *= b
	}
	return n
}

// matchKey packs a match of at most five vertices below 4096.
func matchKey(m []uint32) (k uint64) {
	for _, v := range m {
		k = k<<12 | uint64(v)
	}
	return k
}

// streamTrie streams tr over g in one pass and returns, per plan, the
// multiset of delivered matches (canonical under the pattern's
// automorphisms, as the oracle lists them) and how many delivered tuples
// were no embedding of their plan's pattern in pattern-vertex order.
func streamTrie(t *testing.T, g graph.Adjacency, plain *graph.Graph, pl engine.Engine, set []*pattern.Pattern, threads int) (got []map[uint64]int, misplaced int) {
	t.Helper()
	tr, err := engine.BuildTrie(pl, g, set)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got = make([]map[uint64]int, len(set))
	visits := make([]engine.Visitor, len(set))
	for i, p := range set {
		got[i] = map[uint64]int{}
		auts := canon.Automorphisms(p)
		visits[i] = func(_ int, m []uint32) {
			ok := isEmbedding(plain, p, m)
			k := matchKey(canon.CanonicalMatch(p, m, auts))
			mu.Lock()
			got[i][k]++
			if !ok {
				misplaced++
			}
			mu.Unlock()
		}
	}
	opts, o := pl.ExecConfig()
	opts.Threads = threads
	if _, _, err := engine.MatchTrieCtx(context.Background(), g, tr, engine.Sinks(visits), opts, o); err != nil {
		t.Fatal(err)
	}
	return got, misplaced
}

// TestLabelRowRouteEqualsFilterRoute is the differential test of label
// rows: a labeled level that reads its label's slice of each operand row
// (plain CSR) must find what the same level finds by scanning whole rows and
// filtering (the same graph with LabelRow hidden; the compressed tier), and
// what the brute-force oracle finds — as counts of one merged pass, as the
// match streams of one merged streaming pass (the multiset, every tuple an
// embedding in pattern-vertex order) and as the MNI tables of the merged MNI
// route next to per-pattern MineMNITable, at 1 and 4 threads. A one-leaf
// counting pass over label rows also keeps Extended ≤ Candidates at every
// level: Candidates is what the level examined, not what its rows held.
// (Neither graph has a hub at the default threshold; label slices next to
// hub bitmaps are TestEnginesHubIndexInvariance's labeled patterns.)
func TestLabelRowRouteEqualsFilterRoute(t *testing.T) {
	er, err := dataset.ErdosRenyi(70, 6, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	mi, err := dataset.MiCo().Scaled(0.0012).Generate()
	if err != nil {
		t.Fatal(err)
	}
	// Every labeling over three labels — 0, 1 and the wildcard, which is all
	// that ER's third label matches — on ER; the fully labeled ones, an FSM
	// level's kind, on MI, where a wildcard level multiplies a hub's matches.
	for _, tg := range []struct {
		name     string
		g        *graph.Graph
		alphabet []int32
	}{{"er", er, []int32{0, 1, pattern.Unlabeled}}, {"mi", mi, []int32{0, 1}}} {
		gname, plain, sets := tg.name, tg.g, labelRowSets(t, tg.alphabet)
		compressed, err := graph.Compress(plain, 8)
		if err != nil {
			t.Fatal(err)
		}
		tiers := []struct {
			name string
			g    graph.Adjacency
		}{{"label-rows", plain}, {"filter", noLabelRows{plain}}, {"compressed", compressed}}
		for sname, set := range sets {
			counts := make([]uint64, len(set))
			matches := make([]map[uint64]int, len(set))
			tables := make([]*aggr.Table, len(set))
			for i, p := range set {
				matches[i] = map[uint64]int{}
				for _, m := range refmatch.Matches(plain, p) {
					matches[i][matchKey(m)]++
				}
				counts[i] = uint64(len(matches[i]))
				if p.Induced() == pattern.EdgeInduced { // the MNI route's queries
					tables[i] = mniOracle(plain, p)
				}
			}
			for pi, e := range allEngines() {
				if !e.SupportsInduced(set[0].Induced()) {
					continue
				}
				for _, tier := range tiers {
					name := fmt.Sprintf("%s %s %s %s", gname, sname, e.Name(), tier.name)
					tr, err := engine.BuildTrie(e, tier.g, set)
					if err != nil {
						t.Fatalf("%s: BuildTrie: %v", name, err)
					}
					for _, threads := range []int{1, 4} {
						opts, o := e.ExecConfig()
						opts.Threads = threads
						got, _, err := engine.BacktrackTrieCtx(context.Background(), tier.g, tr, opts, o)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if fmt.Sprint(got) != fmt.Sprint(counts) {
							t.Errorf("%s threads=%d: counted %v, oracle %v (%v)", name, threads, got, counts, set)
						}
						// Streams and tables on two planners whose orders differ.
						if pi%2 == 1 {
							continue
						}
						streamed, misplaced := streamTrie(t, tier.g, plain, e, set, threads)
						if misplaced != 0 || !reflect.DeepEqual(streamed, matches) {
							t.Errorf("%s threads=%d: the streams differ from the oracle's, or %d tuples are no embeddings (%v)", name, threads, misplaced, set)
						}
					}
					for i, p := range set {
						if (pi+i)%9 != 0 {
							continue
						}
						_, st, err := e.CountCtx(context.Background(), tier.g, p)
						if err != nil {
							t.Fatalf("%s %v: %v", name, p, err)
						}
						for li, l := range st.Levels {
							if l.Extended > l.Candidates {
								t.Errorf("%s %v level %d: extended %d of %d examined", name, p, li, l.Extended, l.Candidates)
							}
						}
					}
					if pi%2 == 1 || set[0].Induced() != pattern.EdgeInduced || !e.SupportsInduced(pattern.VertexInduced) {
						continue
					}
					merged, rs, err := (&core.Runner{Engine: e}).MNITablesCtx(context.Background(), tier.g, set)
					if err != nil {
						t.Fatalf("%s: MNITables: %v", name, err)
					}
					if rs.Mining.TriePasses != 1 {
						t.Fatalf("%s: %d passes, not the merged MNI route", name, rs.Mining.TriePasses)
					}
					for i, p := range set {
						single := merged[i]
						if i%9 == 0 {
							if single, _, err = core.MineMNITable(context.Background(), e, tier.g, p); err != nil {
								t.Fatalf("%s %v: %v", name, p, err)
							}
						}
						if !merged[i].Equal(tables[i]) || !single.Equal(tables[i]) {
							t.Errorf("%s %v: merged route %v, per pattern %v, oracle %v", name, p, merged[i], single, tables[i])
						}
					}
				}
			}
		}
	}
}
