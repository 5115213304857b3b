package report

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"morphing/internal/core"
	"morphing/internal/graph"
	"morphing/internal/obs"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// chordRing builds the deterministic test graph shared by these tests: a
// cycle plus stride-2 chords, dense in triangles and 4-cycles.
func chordRing(n int) *graph.Graph {
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

func explainedRun(t *testing.T, threads int) *core.RunStats {
	t.Helper()
	g := chordRing(256)
	r := &core.Runner{Engine: peregrine.New(threads), Explain: true}
	queries := []*pattern.Pattern{
		pattern.Triangle(),
		pattern.FourCycle().AsVertexInduced(),
	}
	_, st, err := r.CountsCtx(context.Background(), g, queries)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestFromRunStats(t *testing.T) {
	st := explainedRun(t, 2)
	rep := FromRunStats(st)

	if rep.Schema != Schema {
		t.Errorf("schema %q", rep.Schema)
	}
	if rep.Engine != "Peregrine" || rep.GraphVertices != 256 || rep.GraphEdges == 0 {
		t.Errorf("run identity: %q %d %d", rep.Engine, rep.GraphVertices, rep.GraphEdges)
	}
	if len(rep.Queries) != 2 {
		t.Fatalf("%d queries", len(rep.Queries))
	}
	if rep.Queries[0].Name != "triangle" || rep.Queries[1].Name != "4-cycle" {
		t.Errorf("friendly names: %q, %q", rep.Queries[0].Name, rep.Queries[1].Name)
	}
	if len(rep.Patterns) != len(st.Selection.Mine) {
		t.Fatalf("%d pattern reports, want %d", len(rep.Patterns), len(st.Selection.Mine))
	}
	if len(rep.Mined) != len(st.Selection.Mine) || rep.Mined[0] != st.Selection.Mine[0].Pattern.String() {
		t.Errorf("mined %v, want the winner set's %d patterns", rep.Mined, len(st.Selection.Mine))
	}
	if rep.Queries[0].Count != nil {
		t.Error("a report carries counts before SetCounts")
	}
	rep.SetCounts([]uint64{0, 7})
	if c := rep.Queries[0].Count; c == nil || *c != 0 {
		t.Errorf("SetCounts lost a zero count: %v", c)
	}
	if c := rep.Queries[1].Count; c == nil || *c != 7 {
		t.Errorf("SetCounts: query 1 count %v, want 7", c)
	}
	for _, pr := range rep.Patterns {
		if pr.CalibrationRatio <= 0 || math.IsInf(pr.CalibrationRatio, 0) || math.IsNaN(pr.CalibrationRatio) {
			t.Errorf("pattern %s: calibration ratio %v not finite-positive", pr.Pattern, pr.CalibrationRatio)
		}
		if pr.EstCost <= 0 {
			t.Errorf("pattern %s: no cost estimate", pr.Pattern)
		}
	}
	if rep.Mining == nil {
		t.Fatal("no mining report")
	}
	if len(rep.Mining.Levels) == 0 {
		t.Error("no per-level selectivity")
	}
	for _, l := range rep.Mining.Levels {
		if l.Extended > l.Candidates {
			t.Errorf("level %d: extended %d > candidates %d", l.Level, l.Extended, l.Candidates)
		}
	}
	if len(rep.Mining.Workers) == 0 {
		t.Error("no worker telemetry")
	}
	if rep.Selection == nil || len(rep.Selection.NodeCosts) == 0 {
		t.Error("no selection trace")
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	rep := FromRunStats(explainedRun(t, 1))
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Schema != Schema || len(back.Patterns) != len(rep.Patterns) {
		t.Errorf("round trip lost data: %q, %d patterns", back.Schema, len(back.Patterns))
	}
	for _, pr := range back.Patterns {
		if pr.Matches == 0 && pr.EstMatches == 0 {
			t.Errorf("pattern %s: neither predicted nor measured matches survived", pr.Pattern)
		}
	}
}

func TestWriteTextShowsRejectedAlternatives(t *testing.T) {
	rep := FromRunStats(explainedRun(t, 2))
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"-- queries --",
		"triangle",
		"Algorithm 1",
		"[rejected]",
		"marginal cost",
		"levels shared",
		"as one trie",
		"measured matches",
		"per-level selectivity",
		"workers:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("explain text missing %q:\n%s", want, text)
		}
	}
}

// TestReportConcurrentWorkers exercises the report path under -race:
// several explained pipelines run concurrently on multi-worker engines,
// each building its report from the RunStats it returned.
func TestReportConcurrentWorkers(t *testing.T) {
	g := chordRing(512)
	const runs = 4
	var wg sync.WaitGroup
	errs := make([]error, runs)
	reports := make([]*RunReport, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &core.Runner{Engine: peregrine.New(4), Explain: true, Obs: &obs.Observer{Metrics: obs.NewRegistry()}}
			var st *core.RunStats
			_, st, errs[i] = r.CountsCtx(context.Background(), g, []*pattern.Pattern{pattern.Triangle()})
			reports[i] = FromRunStats(st)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	ids := map[string]bool{}
	for _, rep := range reports {
		if len(rep.Mining.Workers) != 4 {
			t.Errorf("report has %d worker entries, want 4", len(rep.Mining.Workers))
		}
		if rep.Mining.Matches == 0 {
			t.Error("report lost its match count")
		}
		ids[rep.RunID] = true
	}
	if len(ids) != runs {
		t.Errorf("%d distinct run IDs over %d runs", len(ids), runs)
	}
}

func TestFriendlyName(t *testing.T) {
	cases := []struct {
		p    *pattern.Pattern
		want string
	}{
		{pattern.Triangle(), "triangle"},
		{pattern.FourClique(), "4-clique"},
		{pattern.FourCycle().AsVertexInduced(), "4-cycle"}, // variant-insensitive
		{pattern.Path(6), ""},                              // unnamed structure
	}
	for _, c := range cases {
		if got := FriendlyName(c.p); got != c.want {
			t.Errorf("FriendlyName(%v) = %q, want %q", c.p, got, c.want)
		}
	}
}

// TestInterruptedRunSurvivesReport pins the server-path contract: an
// interrupted run's Phase, per-alternative partial counts, and the
// calibration ratio must survive the RunStats -> RunReport conversion
// (they are what morphd attaches to deadline/cancel errors).
func TestInterruptedRunSurvivesReport(t *testing.T) {
	st := &core.RunStats{
		Engine:        "Peregrine",
		GraphVertices: 256,
		GraphEdges:    512,
		Phase:         core.PhaseMine,
		Partial: []core.PartialCount{
			{Pattern: pattern.Triangle(), Count: 42},
			{Pattern: pattern.FourCycle().AsVertexInduced(), Count: 7},
		},
	}
	rep := FromRunStats(st)
	if !rep.Interrupted {
		t.Fatal("Phase=mine must mark the report interrupted")
	}
	if rep.Phase != core.PhaseMine {
		t.Errorf("phase %q", rep.Phase)
	}
	if len(rep.Partial) != 2 {
		t.Fatalf("%d partial rows, want 2 (RunStats.Partial dropped)", len(rep.Partial))
	}
	if rep.Partial[0].Count != 42 || rep.Partial[1].Count != 7 {
		t.Errorf("partial counts %d,%d", rep.Partial[0].Count, rep.Partial[1].Count)
	}
	if rep.Partial[0].Name != "triangle" {
		t.Errorf("partial rows lost friendly names: %q", rep.Partial[0].Name)
	}

	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "PARTIAL") || !strings.Contains(out, "42") {
		t.Errorf("text report hides the interruption:\n%s", out)
	}

	// The full pipeline round trip: JSON keeps the interruption.
	buf.Reset()
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !back.Interrupted || len(back.Partial) != 2 {
		t.Errorf("JSON round trip: interrupted=%v partial=%d", back.Interrupted, len(back.Partial))
	}
}

// TestCompletedRunNotInterrupted guards the other direction: a finished
// explain run must not be marked interrupted, and its mean calibration
// ratio must survive into the report.
func TestCompletedRunNotInterrupted(t *testing.T) {
	st := explainedRun(t, 1)
	rep := FromRunStats(st)
	if rep.Interrupted || len(rep.Partial) != 0 {
		t.Errorf("completed run reported interrupted=%v partial=%d", rep.Interrupted, len(rep.Partial))
	}
	if rep.Phase != core.PhaseDone {
		t.Errorf("phase %q, want done", rep.Phase)
	}
	if rep.CalibrationRatio <= 0 {
		t.Errorf("calibration ratio %v did not survive the report path", rep.CalibrationRatio)
	}
}
