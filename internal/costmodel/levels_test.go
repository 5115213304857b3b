package costmodel_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"morphing/internal/autozero"
	"morphing/internal/bigjoin"
	"morphing/internal/canon"
	"morphing/internal/costmodel"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/graphpi"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/plan"
)

// TestLevelKeysAreTheTrieNodes: over random sets of distinct connected
// patterns of mixed sizes, labels and variants, each set planned by one of
// the four policies' planners on the test graph — Peregrine's order,
// AutoZero's, GraphPi's search priced by the model, BigJoin's — two plans
// carry the same key at a level exactly when plan.MergePlans runs them on
// the same node there, equal keys carry equal costs, and a last level's key
// is the plan's own: a set's distinct keys are its trie, priced
// consistently. There is one classification: every plan level's class is
// the class its node carries (a class depends on the path from the root
// alone), and the model charges a plan's last level as a collapsed leaf
// exactly when the counting pass of the plan collapses it.
func TestLevelKeysAreTheTrieNodes(t *testing.T) {
	g, err := dataset.MiCo().Scaled(0.01).Generate()
	if err != nil {
		t.Fatal(err)
	}
	sum := graph.Summarize(g)
	m := costmodel.NewDefault(sum)
	w := costmodel.DefaultWeights()
	w.Leaf = 0
	noLeaf := costmodel.New(sum, w)
	planners := []engine.Engine{peregrine.New(1), autozero.New(1), graphpi.New(1), bigjoin.New(1)}
	r := rand.New(rand.NewSource(5))
	shared, collapsed := 0, 0
	for trial := 0; trial < 400; trial++ {
		planner := planners[trial%len(planners)]
		var plans []*plan.Plan
		seen := map[[2]uint64]bool{}
		for want := 2 + r.Intn(6); len(plans) < want; {
			n := 3 + r.Intn(3)
			var edges [][2]int
			for v := 1; v < n; v++ {
				edges = append(edges, [2]int{r.Intn(v), v})
			}
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if r.Intn(3) == 0 && !slices.Contains(edges, [2]int{u, v}) {
						edges = append(edges, [2]int{u, v})
					}
				}
			}
			opts := []pattern.Option{pattern.WithInduced(pattern.Induced(r.Intn(2)))}
			if trial%3 > 0 { // a third of the sets unlabeled, the rest on one or two labels
				labels := make([]int32, n)
				for i := range labels {
					labels[i] = int32(r.Intn(2) * (trial % 3))
				}
				opts = append(opts, pattern.WithLabels(labels))
			}
			p := pattern.MustNew(n, edges, opts...)
			if !planner.SupportsInduced(p.Induced()) {
				p = p.AsEdgeInduced()
			}
			id := [2]uint64{canon.StructureID(p), uint64(p.Induced())}
			if p.IsClique() {
				id[1] = 0
			}
			if seen[id] {
				continue
			}
			seen[id] = true
			pl, err := planner.PlanPattern(g, p)
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, pl)
		}
		tr, err := plan.MergePlans(plans)
		if err != nil {
			t.Fatal(err)
		}
		nodeOf := costmodel.NodePaths(tr)
		costOf := map[uint64]float64{}
		levels := make([][]costmodel.Level, len(plans))
		for i, pl := range plans {
			levels[i] = m.Levels(pl, float64(trial%2), 2, nil)
			for l, lv := range levels[i] {
				if c, ok := costOf[lv.Key]; ok && c != lv.Cost {
					for _, q := range plans {
						t.Logf("%v order %v conn %v disc %v gr %v sm %v", q.Pattern, q.Order, q.Connect, q.Disconnect, q.Greater, q.Smaller)
					}
					t.Fatalf("trial %d (%s): key %x priced %v and %v (plan %d)", trial, planner.Name(), lv.Key, c, lv.Cost, i)
				}
				costOf[lv.Key] = lv.Cost
				if node := nodeOf[i][l]; !reflect.DeepEqual(node.Class, pl.Class[l]) {
					t.Fatalf("trial %d (%s): %v order %v level %d has class %+v, its trie node %+v", trial, planner.Name(), pl.Pattern, pl.Order, l, pl.Class[l], node.Class)
				}
			}

			// The plan's own counting pass: a one-plan trie, whose last node
			// the executor collapses or not. Pricing with and without Leaf
			// shows whether the model charged the last level as collapsed.
			alone, err := plan.MergePlans([]*plan.Plan{pl})
			if err != nil {
				t.Fatal(err)
			}
			path := costmodel.NodePaths(alone)[0]
			last := len(path) - 1
			priced := m.Levels(pl, 0, 2, nil)[last].Cost != noLeaf.Levels(pl, 0, 2, nil)[last].Cost
			if runs := path[last].Collapsed; priced != runs {
				t.Fatalf("%s: %v order %v: the model prices the last level collapsed %v, the counting pass collapses it %v", planner.Name(), pl.Pattern, pl.Order, priced, runs)
			}
			if priced {
				collapsed++
			}
		}
		for i := range plans {
			for j := range plans[:i] {
				for l := 0; l < min(len(levels[i]), len(levels[j])); l++ {
					sameNode := nodeOf[i][l] == nodeOf[j][l] && l < len(levels[i])-1 && l < len(levels[j])-1
					if sameKey := levels[i][l].Key == levels[j][l].Key; sameKey != sameNode {
						t.Fatalf("trial %d (%s): %v and %v at level %d: same key %v, same trie node %v", trial, planner.Name(), plans[i].Pattern, plans[j].Pattern, l, sameKey, nodeOf[i][l] == nodeOf[j][l])
					}
					if sameNode && l > 1 {
						shared++
					}
				}
			}
		}
	}
	if shared < 100 || collapsed < 100 {
		t.Fatalf("%d shared levels below the first two, %d collapsed last levels: the sets do not exercise sharing and collapsing", shared, collapsed)
	}
}
