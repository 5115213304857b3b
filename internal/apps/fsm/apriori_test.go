package fsm

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"morphing/internal/canon"
	"morphing/internal/core"
	"morphing/internal/dataset"
	"morphing/internal/engines"
	"morphing/internal/graph"
	"morphing/internal/pattern"
)

// extendAll is extend without the Apriori prune: every one-edge extension
// of the frequent patterns, deduplicated canonically.
func extendAll(frequent []*pattern.Pattern, labels []int32) []*pattern.Pattern {
	seen := map[uint64]bool{}
	var out []*pattern.Pattern
	add := func(p *pattern.Pattern) {
		if id := canon.StructureID(p); !seen[id] {
			seen[id] = true
			out = append(out, canon.Canonicalize(p))
		}
	}
	for _, p := range frequent {
		for _, ne := range p.NonEdges() {
			if q, err := p.WithExtraEdge(ne[0], ne[1]); err == nil {
				add(q)
			}
		}
		for u := 0; u < p.N() && p.N() < pattern.MaxVertices; u++ {
			for _, l := range labels {
				q, err := pattern.New(p.N()+1, append(p.Edges(), [2]int{u, p.N()}), pattern.WithLabels(append(p.Labels(), l)))
				if err == nil {
					add(q)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return canon.StructureID(out[i]) < canon.StructureID(out[j]) })
	return out
}

// TestAprioriPruneIsSound: with and without the prune, fsm finds the same
// frequent patterns with the same supports — on every dataset recipe at
// test scale and on labeled and unlabeled ER graphs, 3- and 4-edge, morph
// on and off, every engine model that builds MNI tables — and every
// candidate the prune dropped, mined on its own, is below the support
// threshold.
func TestAprioriPruneIsSound(t *testing.T) {
	type input struct {
		name    string
		g       *graph.Graph
		support int
		edges   []int
	}
	var inputs []input
	for _, r := range dataset.All() {
		g, err := r.Scaled(150 / float64(r.Vertices)).Generate()
		if err != nil {
			t.Fatal(err)
		}
		in := input{r.Name, g, g.NumVertices() / 8, []int{3}}
		if !g.Labeled() {
			in.support = g.NumVertices() * 3 / 4 // every unlabeled candidate matches: keep the frontier small
		}
		inputs = append(inputs, in)
	}
	for _, labels := range []int{3, 0} {
		g, err := dataset.ErdosRenyi(70, 6, labels, 17)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("ER/%d-labels", labels), g, 18, []int{3, 4}})
	}
	prunedTotal := 0
	for _, in := range inputs {
		for _, maxEdges := range in.edges {
			for _, name := range engines.Names() {
				eng, err := engines.New(name, 2, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !eng.SupportsInduced(pattern.VertexInduced) {
					continue // core.Runner builds MNI tables on no other kind (policyFor), morphing or not
				}
				for _, morph := range []bool{false, true} {
					opts := Options{MaxEdges: maxEdges, MinSupport: in.support, Morph: morph}
					var pruned []*pattern.Pattern
					recording := func(frequent []*pattern.Pattern, labels []int32) []*pattern.Pattern {
						kept := extend(frequent, labels)
						isKept := map[uint64]bool{}
						for _, p := range kept {
							isKept[canon.StructureID(p)] = true
						}
						for _, p := range extendAll(frequent, labels) {
							if !isKept[canon.StructureID(p)] {
								pruned = append(pruned, p)
							}
						}
						return kept
					}
					got, gotStats, err := mine(context.Background(), in.g, eng, opts, recording)
					if err != nil {
						t.Fatal(err)
					}
					want, wantStats, err := mine(context.Background(), in.g, eng, opts, extendAll)
					if err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("%s %d-FSM on %s, morph %v", in.name, maxEdges, name, morph)
					if len(got) != len(want) || gotStats.Candidates+len(pruned) != wantStats.Candidates {
						t.Fatalf("%s: %d frequent of %d candidates + %d pruned, unpruned %d of %d",
							where, len(got), gotStats.Candidates, len(pruned), len(want), wantStats.Candidates)
					}
					supports := map[uint64]int{}
					for _, f := range want {
						supports[canon.StructureID(f.Pattern)] = f.Support
					}
					for _, f := range got {
						if sup, ok := supports[canon.StructureID(f.Pattern)]; !ok || sup != f.Support {
							t.Errorf("%s: %v has support %d, unpruned %d (frequent there: %v)", where, f.Pattern, f.Support, sup, ok)
						}
					}
					if morph || name != engines.Names()[0] {
						continue // the pruned candidates are the same ones on every engine
					}
					prunedTotal += len(pruned)
					for _, p := range pruned {
						tbl, _, err := core.MineMNITable(context.Background(), eng, in.g, p)
						if err != nil {
							t.Fatal(err)
						}
						if tbl.Support() >= in.support {
							t.Errorf("%s: pruned %v has support %d >= %d", where, p, tbl.Support(), in.support)
						}
					}
				}
			}
		}
	}
	if prunedTotal < 100 {
		t.Fatalf("the prune dropped %d candidates over all inputs: too few to call it tested", prunedTotal)
	}
}
