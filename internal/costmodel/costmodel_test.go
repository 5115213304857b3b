package costmodel

import (
	"testing"
	"time"

	"morphing/internal/canon"
	"morphing/internal/dataset"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/plan"
)

func model(t *testing.T) *Model {
	t.Helper()
	g, err := dataset.MiCo().Scaled(0.01).Generate()
	if err != nil {
		t.Fatal(err)
	}
	return NewDefault(graph.Summarize(g))
}

func planFor(t *testing.T, p *pattern.Pattern) *plan.Plan {
	t.Helper()
	pl, err := plan.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestAntiEdgesRaisePlanCost(t *testing.T) {
	m := model(t)
	for _, base := range []*pattern.Pattern{
		pattern.FourStar(), pattern.Path(4), pattern.FourCycle(), pattern.TailedTriangle(),
	} {
		e := m.PlanCost(planFor(t, base.AsEdgeInduced()))
		v := m.PlanCost(planFor(t, base.AsVertexInduced()))
		if v <= e {
			t.Errorf("%v: vertex-induced plan cost %v not above edge-induced %v (anti-edge differences must cost)", base, v, e)
		}
	}
}

func TestCliquePlanCostsCoincide(t *testing.T) {
	m := model(t)
	e := m.PlanCost(planFor(t, pattern.FourClique()))
	v := m.PlanCost(planFor(t, pattern.FourClique().AsVertexInduced()))
	if e != v {
		t.Fatalf("clique variant costs differ: %v vs %v", e, v)
	}
}

func TestMatchEstimateOrdering(t *testing.T) {
	m := model(t)
	for _, base := range []*pattern.Pattern{
		pattern.FourStar(), pattern.FourCycle(), pattern.TailedTriangle(),
	} {
		aut := len(canon.Automorphisms(base))
		e := m.MatchEstimate(base.AsEdgeInduced(), aut)
		v := m.MatchEstimate(base.AsVertexInduced(), aut)
		if v > e {
			t.Errorf("%v: vertex-induced estimate %v exceeds edge-induced %v", base, v, e)
		}
	}
	// Denser patterns on the same vertices have fewer expected matches.
	star := m.MatchEstimate(pattern.FourStar(), len(canon.Automorphisms(pattern.FourStar())))
	k4 := m.MatchEstimate(pattern.FourClique(), 24)
	if k4 >= star {
		t.Errorf("K4 estimate %v not below 4-star estimate %v", k4, star)
	}
}

func alone(t *testing.T, m *Model, p *pattern.Pattern, perMatch float64) (cost float64) {
	t.Helper()
	levels, err := m.PatternLevels(p, perMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range levels {
		cost += l.Cost
	}
	return cost
}

func TestPerMatchCostIncreasesPatternCost(t *testing.T) {
	m := model(t)
	p := pattern.FourStar()
	if free, costly := alone(t, m, p, 0), alone(t, m, p, 100); costly <= free {
		t.Fatalf("per-match cost ignored: %v <= %v", costly, free)
	}
}

// TestPlanCostAllocatesNothing: GraphPi's order search prices up to 120
// orders per mined pattern through PlanCost, on every query it plans. Each
// such plan is lowered when it is priced (plan.Plan.CountingOps), in pooled
// scratch: once warm, pricing an order allocates nothing.
func TestPlanCostAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops a share of what is put back")
	}
	m := model(t)
	for _, p := range []*pattern.Pattern{
		pattern.FourCycle().AsVertexInduced(), pattern.TailedTriangle(), pattern.FourClique(),
		pattern.MustNew(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}}, pattern.WithLabels([]int32{0, 0, pattern.Unlabeled, 1, 0}), pattern.WithInduced(pattern.VertexInduced)),
	} {
		pl, err := plan.BuildWithOrder(p, plan.DefaultOrder(p)) // a plan the shape memo did not lower
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { m.PlanCost(pl) }); n > 0 {
			t.Errorf("%v: PlanCost allocates %v objects per call", p, n)
		}
	}
}

// nodePaths returns, per plan of tr, the trie node it runs at each level.
func nodePaths(tr *plan.Trie) [][]*plan.TrieNode {
	paths := make([][]*plan.TrieNode, len(tr.Plans))
	var walk func(ns []*plan.TrieNode, path []*plan.TrieNode)
	walk = func(ns []*plan.TrieNode, path []*plan.TrieNode) {
		for _, n := range ns {
			here := append(path[:len(path):len(path)], n)
			for _, b := range n.Branches {
				for _, idx := range b.Leaves {
					paths[idx] = here
				}
				walk(b.Children, here)
			}
		}
	}
	walk(tr.Roots, nil)
	return paths
}

func TestLabelFrequencyShrinksCost(t *testing.T) {
	g, err := dataset.ErdosRenyi(500, 10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := graph.Summarize(g)
	// Synthesize a label distribution: label 1 rare, label 2 common.
	sum.LabelFreq = map[int32]float64{1: 0.01, 2: 0.8}
	m := NewDefault(sum)
	rare := pattern.MustNew(3, [][2]int{{0, 1}, {1, 2}}, pattern.WithLabels([]int32{1, 1, 1}))
	common := pattern.MustNew(3, [][2]int{{0, 1}, {1, 2}}, pattern.WithLabels([]int32{2, 2, 2}))
	cr := m.PlanCost(planFor(t, rare))
	cc := m.PlanCost(planFor(t, common))
	if cr >= cc {
		t.Fatalf("rare-label plan cost %v not below common-label %v", cr, cc)
	}
	// Unseen labels get a tiny non-zero factor.
	unseen := pattern.MustNew(2, [][2]int{{0, 1}}, pattern.WithLabels([]int32{99, 99}))
	if c := m.PlanCost(planFor(t, unseen)); c <= 0 {
		t.Fatalf("unseen label cost %v must stay positive", c)
	}
}

func TestRestrictionFactorReducesCost(t *testing.T) {
	g, err := dataset.ErdosRenyi(500, 10, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	sum := graph.Summarize(g)
	w := DefaultWeights()
	w.RestrictionFactor = 1
	loose, tight := New(sum, w), NewDefault(sum)
	pl := planFor(t, pattern.FourClique()) // heavily restricted
	if tight.PlanCost(pl) >= loose.PlanCost(pl) {
		t.Fatal("restriction factor had no effect")
	}
}

func TestModelDegenerateSummaries(t *testing.T) {
	// Empty and tiny graphs must not produce NaN/zero division.
	m := NewDefault(graph.Summary{})
	c := m.PlanCost(planFor(t, pattern.Triangle()))
	if c != c || c < 0 { // NaN check
		t.Fatalf("degenerate summary produced cost %v", c)
	}
	if est := m.MatchEstimate(pattern.Triangle(), 0); est < 0 {
		t.Fatalf("negative estimate %v", est)
	}
}

func TestProfileUDF(t *testing.T) {
	slow := func(m []uint32) {
		time.Sleep(20 * time.Microsecond)
	}
	fast := func(m []uint32) {}
	cs := ProfileUDF(slow, 4, 64, 100, 1e8)
	cf := ProfileUDF(fast, 4, 64, 100, 1e8)
	if cs <= cf {
		t.Fatalf("profiling cannot tell slow (%v) from fast (%v)", cs, cf)
	}
	if cf < 0 {
		t.Fatalf("negative profile %v", cf)
	}
	// Default sample count and normalization paths.
	if c := ProfileUDF(fast, 3, 0, 0, 0); c < 0 {
		t.Fatalf("defaulted profile negative: %v", c)
	}
}
