package enginetest

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"morphing/internal/canon"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/graphpi"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/plan"
)

// opKindNames names the closed set of plan.OpKind for failure messages.
var opKindNames = [plan.NumOpKinds]string{
	plan.OpRoot: "root", plan.OpBind: "bind", plan.OpSettle: "settle", plan.OpBindsNone: "binds none",
	plan.OpCollapsed: "collapsed", plan.OpCountDegree: "degree", plan.OpCountRows: "rows",
	plan.OpCountMerge: "merge", plan.OpCountDiff: "difference", plan.OpCountMarked: "marked",
	plan.OpCountHeld: "held", plan.OpCountFan: "fan slice", plan.OpFan: "label fan",
}

// labeledPatterns labels every connected 3- and 4-vertex structure in each
// variant with a few assignments over three labels, one pattern per
// isomorphism class: label siblings of one row (fans, fan slices), labeled
// bases with and without a binding part (held, difference).
func labeledPatterns(t *testing.T) []*pattern.Pattern {
	t.Helper()
	seen := map[string]bool{}
	var out []*pattern.Pattern
	for k := 3; k <= 4; k++ {
		shapes, err := canon.AllConnectedPatterns(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range shapes {
			for _, labels := range [][]int32{{0, 1, 0, 1}, {0, 0, 1, 1}, {1, 0, 2, 0}, {0, 1, 2, 2}} {
				for _, iv := range []pattern.Induced{pattern.EdgeInduced, pattern.VertexInduced} {
					p, err := pattern.New(k, s.Edges(), pattern.WithLabels(slices.Clone(labels[:k])))
					if err != nil {
						t.Fatal(err)
					}
					p = p.Variant(iv)
					if key := fmt.Sprint(canon.Key(canon.Canonicalize(p)), iv); !seen[key] {
						seen[key] = true
						out = append(out, p)
					}
				}
			}
		}
	}
	return out
}

// TestEveryOpRuns: every kind of op in the closed set a pass lowers a trie
// to (plan.OpKind, what engine.Lower decides for the graph and the pass) is
// lowered and runs — some node of that kind entered, or for a label fan
// some member — across counting and streaming passes of Peregrine's and
// GraphPi's merged tries on the plain, compressed and mmap tiers, over
// labeled and unlabeled random and hubbed graphs. Every pass's counts equal
// the plain tier's counting pass, and no tier but the plain one, which
// serves label rows, lowers a label fan.
func TestEveryOpRuns(t *testing.T) {
	ctx := context.Background()
	var lowered, ran [plan.NumOpKinds]int
	unlabeled := append(fourMotifs(t, pattern.VertexInduced), fourMotifs(t, pattern.EdgeInduced)...)
	unlabeled = append(unlabeled, pattern.TailedTriangle(), pattern.Wedge())
	labeled := labeledPatterns(t)
	for _, labels := range []int{0, 3} {
		set := unlabeled
		if labels > 0 {
			set = labeled
		}
		for _, shape := range []struct {
			name string
			gen  func() (*graph.Graph, error)
		}{
			{"random", func() (*graph.Graph, error) { return dataset.ErdosRenyi(90, 5, labels, 81) }},
			{"hubbed", func() (*graph.Graph, error) { return dataset.Hubbed(90, 4, 2, labels, 82) }},
		} {
			g, err := shape.gen()
			if err != nil {
				t.Fatal(err)
			}
			c, err := graph.Compress(g, 8)
			if err != nil {
				t.Fatal(err)
			}
			tiers := []struct {
				name string
				g    graph.Adjacency
			}{{"plain", g}, {"compressed", c}, {"mmap", mmapTier(t, c)}}
			for _, e := range []engine.Engine{peregrine.New(2), graphpi.New(2)} {
				var ps []*pattern.Pattern
				for _, p := range set {
					if e.SupportsInduced(p.Induced()) || p.IsClique() {
						ps = append(ps, p)
					}
				}
				var want []uint64
				for _, tier := range tiers {
					tr, err := engine.BuildTrie(e, tier.g, ps)
					if err != nil {
						t.Fatal(err)
					}
					for _, stream := range []bool{false, true} {
						name := fmt.Sprintf("%s, %d labels, %s, %s, stream %v", shape.name, labels, tier.name, e.Name(), stream)
						var sinks []engine.Sink
						if stream {
							sinks = make([]engine.Sink, len(tr.Plans))
							for i := range sinks {
								sinks[i] = func(int) engine.Window { return func([]uint32, int, []uint32) {} }
							}
						}
						got, st, err := engine.MatchTrieCtx(ctx, tier.g, tr, sinks, engine.ExecOptions{Threads: 2}, nil)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if want == nil {
							want = got
						} else if !slices.Equal(got, want) {
							t.Errorf("%s: counts %v, the plain counting pass %v", name, got, want)
						}
						enters := make([]uint64, tr.Nodes)
						for _, n := range st.TrieNodes {
							enters[n.Node] = n.Enters
						}
						prog := engine.Lower(tier.g, tr, stream)
						for i, op := range prog.Ops {
							lowered[op.Kind]++
							entered := i < tr.Nodes && enters[i] > 0
							if op.Kind == plan.OpFan {
								if tier.name != "plain" {
									t.Fatalf("%s: a label fan at depth %d", name, op.At)
								}
								entered = slices.ContainsFunc(op.Members(), func(m int32) bool { return enters[m] > 0 })
							}
							if entered {
								ran[op.Kind]++
							}
						}
					}
				}
			}
		}
	}
	for k := range plan.NumOpKinds {
		t.Logf("%-10s lowered %5d, ran %5d", opKindNames[k], lowered[k], ran[k])
		if lowered[k] == 0 || ran[k] == 0 {
			t.Errorf("op %q lowered %d times, ran %d times: every kind must run", opKindNames[k], lowered[k], ran[k])
		}
	}
}
