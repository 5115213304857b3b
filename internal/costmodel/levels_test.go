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
// alone). And there is one decision of what a node runs, the lowering's
// (plan.Program): the model charges a base build at a level exactly when the
// plan's own counting pass sources the level from a base it builds
// (SrcBuilt), once per binding of the level the op names, and charges the
// last level as a collapsed leaf, or as a marked one, exactly when that pass
// makes it OpCollapsed, or OpCountMarked. All of it holds on each tier: a
// model built from a compressed copy's summary prices the pass lowered
// without label rows, where a labeled level scans and hands its descendants
// an unfiltered raw set to alias (SrcRaw). A share of the labeled sets
// leaves some vertices unlabeled, and a share plants a star or a
// vertex-induced hub with mixed labels, where that aliasing shows on the
// plain tier too.
func TestLevelKeysAreTheTrieNodes(t *testing.T) {
	g, err := dataset.MiCo().Scaled(0.01).Generate()
	if err != nil {
		t.Fatal(err)
	}
	c, err := graph.Compress(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// tier is the models priced from one storage tier's summary: the
	// default, and without Leaf, and Marked, which shows how the default
	// charged the last level.
	type tier struct {
		name                string
		labelRows           bool
		m, noLeaf, noMarked *costmodel.Model
	}
	tierOf := func(name string, sum graph.Summary) tier {
		noLeaf, noMarked := costmodel.DefaultWeights(), costmodel.DefaultWeights()
		noLeaf.Leaf, noMarked.Marked = 0, 0
		return tier{name, sum.LabelRows, costmodel.NewDefault(sum), costmodel.New(sum, noLeaf), costmodel.New(sum, noMarked)}
	}
	tiers := []tier{tierOf("plain", graph.Summarize(g)), tierOf("compressed", graph.Summarize(c))}
	if !tiers[0].labelRows || tiers[1].labelRows {
		t.Fatalf("label rows: plain %v, compressed %v; want true, false", tiers[0].labelRows, tiers[1].labelRows)
	}
	var prog plan.Program
	collapsed, marked := 0, 0
	// alone lowers pl's own counting pass — a one-plan trie — on each tier
	// and checks that tier's model's charges against its ops.
	alone := func(planner string, pl *plan.Plan) {
		tr, err := plan.MergePlans([]*plan.Plan{pl})
		if err != nil {
			t.Fatal(err)
		}
		path := costmodel.NodePaths(tr)[0]
		for _, tt := range tiers {
			prog.Lower(tr, false, tt.labelRows)
			for l := 1; l < len(path); l++ {
				op := &prog.Ops[path[l].ID]
				if at := costmodel.BaseAt(tt.m, pl, l); (at != 0) != (op.Src == plan.SrcBuilt) || at != 0 && at != int(op.At) {
					t.Fatalf("%s, %s tier: %v order %v level %d: the model charges a base build per binding of level %d (0: none); the counting pass runs Src %d (SrcBuilt %d, SrcRaw %d) at %d",
						planner, tt.name, pl.Pattern, pl.Order, l, at, op.Src, plan.SrcBuilt, plan.SrcRaw, op.At)
				}
			}
			last := len(path) - 1
			op := prog.Ops[path[last].ID].Kind
			cost := tt.m.Levels(pl, 0, 2, nil)[last].Cost
			priced := cost != tt.noLeaf.Levels(pl, 0, 2, nil)[last].Cost
			pricedMarked := cost != tt.noMarked.Levels(pl, 0, 2, nil)[last].Cost
			if priced != (op == plan.OpCollapsed) || pricedMarked != (op == plan.OpCountMarked) {
				t.Fatalf("%s, %s tier: %v order %v: the model prices the last level collapsed %v, marked %v; the counting pass lowers it to op %d", planner, tt.name, pl.Pattern, pl.Order, priced, pricedMarked, op)
			}
			if priced {
				collapsed++
			}
			if pricedMarked {
				marked++
			}
		}
	}
	planners := []engine.Engine{peregrine.New(1), autozero.New(1), graphpi.New(1), bigjoin.New(1)}

	// A mixed-label star: its level 3 is labeled but reads no label row (it
	// aliases level 2's raw set, with nothing to intersect), so its raw set
	// is whole, and level 4 aliases it rather than building a base.
	star, err := pattern.Parse("n=5;e=0-1,0-2,0-3,0-4;l=0,0,-1,1,0;v")
	if err != nil {
		t.Fatal(err)
	}
	for _, planner := range planners {
		p := star
		if !planner.SupportsInduced(p.Induced()) {
			p = p.AsEdgeInduced()
		}
		pl, err := planner.PlanPattern(g, p)
		if err != nil {
			t.Fatal(err)
		}
		alone(planner.Name(), pl)
	}

	// A hub whose level 3 builds its base once per binding of level 1 on
	// the plain tier (SrcBuilt at 1), where level 2 reads label rows; on
	// the compressed tier level 2 scans, keeping its raw set whole, and
	// level 3 aliases it (SrcRaw at 2).
	row, err := pattern.Parse("n=5;e=0-1,0-2,0-3,0-4,1-2,1-4,3-4;l=-1,1,0,1,1")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := autozero.New(1).PlanPattern(g, row)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 4, 2, 3}; !slices.Equal(pl.Order, want) {
		t.Fatalf("AutoZero orders %v as %v, want %v", row, pl.Order, want)
	}
	for _, tt := range tiers {
		tr, err := plan.MergePlans([]*plan.Plan{pl})
		if err != nil {
			t.Fatal(err)
		}
		prog.Lower(tr, false, tt.labelRows)
		op := prog.Ops[costmodel.NodePaths(tr)[0][3].ID]
		src, at := plan.SrcBuilt, int32(1)
		if !tt.labelRows {
			src, at = plan.SrcRaw, 2
		}
		if op.Src != src || op.At != at {
			t.Fatalf("%s tier: %v order %v level 3 runs Src %d at %d, want %d at %d", tt.name, row, pl.Order, op.Src, op.At, src, at)
		}
	}
	alone("autozero", pl)

	r := rand.New(rand.NewSource(5))
	shared := 0
	for trial := 0; trial < 400; trial++ {
		planner := planners[trial%len(planners)]
		var plans []*plan.Plan
		seen := map[[2]uint64]bool{}
		for want := 2 + r.Intn(6); len(plans) < want; {
			n := 3 + r.Intn(3)
			// A quarter of the labeled patterns hang every vertex off
			// vertex 0, vertex-induced, half their vertices unlabeled: a
			// star, or a hub with chords. On the plain tier they reach
			// levels that alias a labeled, scanning ancestor's raw set,
			// which the other random patterns almost never do.
			hub, star := trial%3 > 0 && r.Intn(4) == 0, r.Intn(2) == 0
			var edges [][2]int
			for v := 1; v < n; v++ {
				u := r.Intn(v)
				if hub {
					u = 0
				}
				edges = append(edges, [2]int{u, v})
			}
			for u := 0; u < n && !(hub && star); u++ {
				for v := u + 1; v < n; v++ {
					if r.Intn(3) == 0 && !slices.Contains(edges, [2]int{u, v}) {
						edges = append(edges, [2]int{u, v})
					}
				}
			}
			induced := pattern.Induced(r.Intn(2))
			if hub {
				induced = pattern.VertexInduced
			}
			opts := []pattern.Option{pattern.WithInduced(induced)}
			if trial%3 > 0 { // a third of the sets unlabeled, the rest on one or two labels
				labels := make([]int32, n)
				for i := range labels {
					labels[i] = int32(r.Intn(2) * (trial % 3))
					if hub && r.Intn(2) == 0 || trial%5 < 2 && r.Intn(3) == 0 { // and some of those with vertices left unlabeled
						labels[i] = pattern.Unlabeled
					}
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
		levels := make([][]costmodel.Level, len(plans))
		for _, tt := range tiers {
			costOf := map[uint64]float64{}
			for i, pl := range plans {
				levels[i] = tt.m.Levels(pl, float64(trial%2), 2, levels[i][:0])
				for _, lv := range levels[i] {
					if c, ok := costOf[lv.Key]; ok && c != lv.Cost {
						for _, q := range plans {
							t.Logf("%v order %v conn %v disc %v gr %v sm %v", q.Pattern, q.Order, q.Connect, q.Disconnect, q.Greater, q.Smaller)
						}
						t.Fatalf("trial %d (%s, %s tier): key %x priced %v and %v (plan %d)", trial, planner.Name(), tt.name, lv.Key, c, lv.Cost, i)
					}
					costOf[lv.Key] = lv.Cost
				}
			}
		}
		for i, pl := range plans {
			for l := range levels[i] {
				if node := nodeOf[i][l]; !reflect.DeepEqual(node.Class, pl.Class[l]) {
					t.Fatalf("trial %d (%s): %v order %v level %d has class %+v, its trie node %+v", trial, planner.Name(), pl.Pattern, pl.Order, l, pl.Class[l], node.Class)
				}
			}

			alone(planner.Name(), pl)
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
	t.Logf("%d shared levels below the first two, %d collapsed last levels, %d marked ones", shared, collapsed, marked)
	if shared < 100 || collapsed < 100 {
		t.Fatalf("%d shared levels below the first two, %d collapsed last levels: the sets do not exercise sharing and collapsing", shared, collapsed)
	}
}
