package core

import (
	"context"
	"testing"

	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// TestSelectExplainTrace re-runs the Appendix A.2 selection with the
// trace on and checks that the trace explains the decision: node costs
// for every structure consulted, at least one accepted morph whose
// bookkeeping matches (CostIn < CostOut), and rejected candidates with
// the opposite relation. Crucially the traced run must make the same
// decision as the untraced one.
func TestSelectExplainTrace(t *testing.T) {
	queries := []*pattern.Pattern{
		pattern.FourStar().AsVertexInduced(),
		pattern.Path(4).AsVertexInduced(),
		pattern.FourCycle().AsVertexInduced(),
	}
	d, err := BuildSDAG(queries)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Select(context.Background(), d, queries, appendixA2Costs(t), PolicyAny, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Select(context.Background(), d, queries, appendixA2Costs(t), PolicyAny, SelectOptions{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if traced.Explain == nil {
		t.Fatal("Explain trace missing with SelectOptions.Explain set")
	}
	if plain.Explain != nil {
		t.Fatal("Explain trace recorded without SelectOptions.Explain")
	}
	if len(traced.Mine) != len(plain.Mine) || traced.CostAfter != plain.CostAfter {
		t.Fatalf("traced selection differs from untraced: %d/%v vs %d/%v",
			len(traced.Mine), traced.CostAfter, len(plain.Mine), plain.CostAfter)
	}

	ex := traced.Explain
	if len(ex.NodeCosts) == 0 {
		t.Fatal("no node costs recorded")
	}
	seen := map[string]bool{}
	for _, nc := range ex.NodeCosts {
		if seen[nc.Pattern] {
			t.Errorf("structure %s cost recorded twice (memoization leak)", nc.Pattern)
		}
		seen[nc.Pattern] = true
	}
	var accepted, rejected int
	for _, cm := range ex.Candidates {
		if len(cm.Removed) == 0 {
			t.Errorf("candidate with empty removed set: %+v", cm)
		}
		if cm.Accepted {
			accepted++
			if cm.CostIn >= cm.CostOut {
				t.Errorf("accepted morph without strict cost decrease: in=%v out=%v", cm.CostIn, cm.CostOut)
			}
		} else {
			rejected++
			if cm.CostIn < cm.CostOut {
				t.Errorf("rejected morph that would have decreased cost: in=%v out=%v", cm.CostIn, cm.CostOut)
			}
		}
	}
	if accepted == 0 {
		t.Error("appendix A.2 morphs, but the trace has no accepted candidate")
	}
	if rejected == 0 {
		t.Error("subset enumeration scores losing candidates, but none were traced")
	}
	// Free additions must carry zero cost — they are what makes
	// overlapping morphs compound.
	for _, cm := range ex.Candidates {
		for _, p := range cm.Added {
			if p.Free && p.Cost != 0 {
				t.Errorf("free pair %s charged cost %v", p.Pattern, p.Cost)
			}
		}
	}
}

// TestRunnerExplainCalibration runs the explain pipeline end to end on a
// small graph and checks the calibration contract: one PerPattern entry
// per executed alternative, finite ratios, measured matches consistent
// with the returned counts, and identical query results to the
// non-explained run.
func TestRunnerExplainCalibration(t *testing.T) {
	g := ringWithChords(64)
	queries := []*pattern.Pattern{
		pattern.Triangle(),
		pattern.FourCycle().AsVertexInduced(),
	}
	base := &Runner{Engine: peregrine.New(2)}
	want, _, err := base.CountsCtx(context.Background(), g, queries)
	if err != nil {
		t.Fatal(err)
	}

	r := &Runner{Engine: peregrine.New(2), Explain: true}
	got, st, err := r.CountsCtx(context.Background(), g, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("query %d: explained count %d != baseline %d", i, got[i], want[i])
		}
	}
	if st.Engine != "Peregrine" || st.GraphVertices != g.NumVertices() || st.GraphEdges != g.NumEdges() {
		t.Errorf("run identity fields wrong: %q %d %d", st.Engine, st.GraphVertices, st.GraphEdges)
	}
	if len(st.PerPattern) != len(st.Selection.Mine) {
		t.Fatalf("%d PerPattern entries, want %d", len(st.PerPattern), len(st.Selection.Mine))
	}
	for i, pp := range st.PerPattern {
		ratio := pp.CalibrationRatio()
		if !(ratio > 0) || ratio != ratio {
			t.Errorf("pattern %s: non-finite calibration ratio %v", pp.Pattern, ratio)
		}
		if pp.EstCost <= 0 {
			t.Errorf("pattern %s: missing cost estimate", pp.Pattern)
		}
		if c := st.Selection.Mine[i]; pp.EstMatches != c.EstMatches {
			t.Errorf("pattern %s: EstMatches %v != choice annotation %v", pp.Pattern, pp.EstMatches, c.EstMatches)
		}
	}
	if st.Mining == nil || st.Mining.Matches == 0 {
		t.Error("explained run lost its mining stats")
	}
}

// ringWithChords builds a small deterministic test graph: a cycle over n
// vertices plus chords at stride 2, dense enough to contain triangles,
// 4-cycles and their superpatterns.
func ringWithChords(n int) *graph.Graph {
	var edges [][2]uint32
	for i := 0; i < n; i++ {
		edges = append(edges, [2]uint32{uint32(i), uint32((i + 1) % n)})
		edges = append(edges, [2]uint32{uint32(i), uint32((i + 2) % n)})
	}
	g, err := graph.FromEdges(n, edges, nil)
	if err != nil {
		panic(err)
	}
	return g
}
