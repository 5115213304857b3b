package engine_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"morphing/internal/aggr"
	"morphing/internal/canon"
	"morphing/internal/core"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/plan"
)

// labeledEdgePatterns returns every labeling over labels 0..n-1 of the 2-
// and 3-edge patterns (wedge, triangle, 3-path, 3-star), edge-induced as an
// FSM level mines them, one per isomorphism class.
func labeledEdgePatterns(t *testing.T, n int) []*pattern.Pattern {
	t.Helper()
	shapes := []struct {
		k     int
		edges [][2]int
	}{
		{3, [][2]int{{0, 1}, {1, 2}}},
		{3, [][2]int{{0, 1}, {1, 2}, {0, 2}}},
		{4, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{4, [][2]int{{0, 1}, {0, 2}, {0, 3}}},
	}
	seen := map[string]bool{}
	var out []*pattern.Pattern
	for _, s := range shapes {
		labels := make([]int32, s.k)
		for code := 0; ; code++ {
			c := code
			for i := range labels {
				labels[i] = int32(c % n)
				c /= n
			}
			if c > 0 {
				break
			}
			p, err := pattern.New(s.k, s.edges, pattern.WithLabels(slices.Clone(labels)))
			if err != nil {
				t.Fatal(err)
			}
			if key := canon.Key(canon.Canonicalize(p)); !seen[key] {
				seen[key] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// TestLabelFanIsTheLabelRow holds every set a label fan hands a member
// against the member's own lookup, LabelRow of the row the fan walked: the
// same slice for a present label, nil for an absent one. Every labeled 2-
// and 3-edge pattern over a graph's labels runs as one merged trie — label
// siblings under the rows of the root and of the depth-1 vertex, with
// absent labels — over a labeled random graph and two labeled hubbed ones
// (3, 4 and 5 labels), plain and compressed, on one pooled worker and on
// three: a counting pass, whose counts and per-node Enters and Extended
// must equal the compressed tier's (where no fan may engage, and Candidates
// may only be higher), and per-pattern counts; and the merged MNI route,
// whose tables must equal MineMNITable's, pattern by pattern, one leaf and
// no fan. The test fails unless fans ran in both kinds of pass, handed
// present and absent labels, fed counted leaves, and walked rows bound at
// two depths.
func TestLabelFanIsTheLabelRow(t *testing.T) {
	ctx := context.Background()
	type input struct {
		name   string
		labels int
		gen    func() (*graph.Graph, error)
	}
	inputs := []input{
		{"random", 3, func() (*graph.Graph, error) { return dataset.ErdosRenyi(90, 5, 3, 71) }},
		{"hubbed", 4, func() (*graph.Graph, error) { return dataset.Hubbed(90, 4, 2, 4, 72) }},
		{"hubbed", 5, func() (*graph.Graph, error) { return dataset.Hubbed(70, 4, 2, 5, 73) }},
	}
	var (
		mu                          sync.Mutex
		plain                       *graph.Graph
		calls, present, absent, cnt int
		depths                      = map[int]bool{}
		counting                    bool
		bad                         string
	)
	stop := engine.SeeOps(func(s engine.OpSeen) {
		if s.Op.Src != plan.SrcFan {
			return
		}
		worker, node, v, label, set := s.Worker, s.Op.Node, s.V, s.Op.Node.Label, s.Set
		mu.Lock()
		defer mu.Unlock()
		calls++
		if set == nil {
			absent++
		} else {
			present++
		}
		if counting && node.Leaf && len(node.Branches) == 1 {
			cnt++
		}
		depths[node.Connect[0]] = true
		if want := plain.LabelRow(v, label); bad == "" && (!slices.Equal(set, want) || (set == nil) != (want == nil)) {
			bad = fmt.Sprintf("worker %d, node %d, vertex %d, label %d: fanned %v, LabelRow %v", worker, node.ID, v, label, set, want)
		}
	})
	defer stop()

	for _, in := range inputs {
		g, err := in.gen()
		if err != nil {
			t.Fatal(err)
		}
		compressed, err := graph.Compress(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		set := labeledEdgePatterns(t, in.labels)
		name := fmt.Sprintf("%s, %d labels", in.name, in.labels)
		one := peregrine.New(1)
		want := make([]uint64, len(set))
		tables := make([]*aggr.Table, len(set))
		for i, p := range set {
			if want[i], _, err = one.CountCtx(ctx, g, p); err != nil {
				t.Fatal(err)
			}
			if tables[i], _, err = core.MineMNITable(ctx, one, g, p); err != nil {
				t.Fatal(err)
			}
		}
		var ref *engine.Stats // the compressed tier's counting pass
		for _, tier := range []struct {
			name string
			g    graph.Adjacency
		}{{"compressed", compressed}, {"plain", g}} {
			for _, threads := range []int{1, 3} {
				mu.Lock()
				plain, counting = g, true
				calls, present, absent, cnt = 0, 0, 0, 0
				clear(depths)
				mu.Unlock()
				e := peregrine.New(threads)
				tr, err := engine.BuildTrie(e, tier.g, set)
				if err != nil {
					t.Fatal(err)
				}
				opts, o := e.ExecConfig()
				got, st, err := engine.BacktrackTrieCtx(ctx, tier.g, tr, opts, o)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s, %s, %d workers: counted %v, one leaf at a time %v", name, tier.name, threads, got, want)
				}
				if ref == nil {
					ref = st
				} else {
					for i, n := range st.TrieNodes {
						r := ref.TrieNodes[i]
						if n.Node != r.Node || n.Enters != r.Enters || n.Extended != r.Extended || n.Candidates > r.Candidates {
							t.Errorf("%s, %s, %d workers: node %+v, compressed %+v", name, tier.name, threads, n, r)
						}
					}
				}
				countingCalls, countedCalls := calls, cnt
				mu.Lock()
				counting = false
				mu.Unlock()

				tabs, _, err := (&core.Runner{Engine: e}).MNITablesCtx(ctx, tier.g, set)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range set {
					if !tabs[i].Equal(tables[i]) {
						t.Errorf("%s, %s, %d workers: the merged table of %v is not MineMNITable's", name, tier.name, threads, p)
					}
				}
				streamingCalls := calls - countingCalls
				switch {
				case bad != "":
					t.Fatalf("%s, %s: %s", name, tier.name, bad)
				case tier.name == "compressed" && calls > 0:
					t.Fatalf("%s: %d fan members ran on the compressed tier", name, calls)
				case tier.name == "plain" && (countingCalls == 0 || streamingCalls == 0 || present == 0 || absent == 0 || countedCalls == 0 || len(depths) < 2):
					t.Fatalf("%s, %d workers: fans ran %d members counting and %d streaming, %d present, %d absent, %d counted, below %d depths: some case never ran",
						name, threads, countingCalls, streamingCalls, present, absent, countedCalls, len(depths))
				}
			}
		}
	}
}
