package core_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"morphing/internal/apps/se"
	"morphing/internal/canon"
	"morphing/internal/core"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// edgeOnly is Peregrine's planner behind a policy that reports no
// vertex-induced support, as graphpi does: under it every vertex-induced
// query is morphed to its edge-induced alternatives whatever the model
// says — the forced route.
type edgeOnly struct{ peregrine.Policy }

func (edgeOnly) SupportsInduced(iv pattern.Induced) bool { return iv == pattern.EdgeInduced }

// servePool is the repo benchmark's pool of serve queries (benchmark/spec.go
// is a module of its own and cannot be imported), motifs4 its mc4
// workloads' query list, scList sc-mmap's. e3Sets are the sets of E3
// (Fig. 13a/b, internal/bench/fig13.go) those lists do not hold already.
var (
	servePool = [][]string{
		{"triangle"}, {"p1"}, {"p2"}, {"p3"}, {"p1:v"}, {"p2:v"}, {"4-cycle:v"},
		{"triangle", "4-cycle:v"},
		{"4-star:v", "tailed-triangle:v"},
		{"4-clique", "chordal-4-cycle:v"},
		{"p1:v", "p2:v", "p3"},
		{"4-star:v", "tailed-triangle:v", "4-cycle:v", "chordal-4-cycle:v", "4-clique:v"},
	}
	motifs4 = []string{"4-star:v", "n=4;e=0-1,1-2,2-3:v", "tailed-triangle:v", "4-cycle:v", "chordal-4-cycle:v", "4-clique:v"}
	scList  = []string{"p1:v", "p2:v", "p3"}
	e3Sets  = [][]string{{"p1:v", "p2:v"}, {"p4:v"}, {"p5:v"}, {"p4:v", "p5:v"}}
)

// named resolves pattern arguments as morphd does: a name or codec text,
// ":v" for the vertex-induced variant.
func named(t testing.TB, names ...string) []*pattern.Pattern {
	t.Helper()
	ps := make([]*pattern.Pattern, len(names))
	for i, arg := range names {
		name, induced := strings.CutSuffix(arg, ":v")
		p, err := pattern.ByName(name)
		if err != nil {
			if p, err = pattern.Parse(name); err != nil {
				t.Fatal(err)
			}
		}
		if induced {
			p = p.AsVertexInduced()
		}
		ps[i] = p
	}
	return ps
}

// routeGraphs are the seeded graphs decisions are judged on: MI x0.01 and
// MG x0.003, or under -short and under the race detector (ten times slower
// per set operation) the same recipes at a third of that.
func routeGraphs(t testing.TB) []*graph.Graph {
	t.Helper()
	scales := []float64{0.01, 0.003}
	if testing.Short() || raceDetector {
		scales = []float64{0.003, 0.001}
	}
	var gs []*graph.Graph
	for i, rec := range []dataset.Recipe{dataset.MiCo(), dataset.MAG()} {
		g, err := rec.Scaled(scales[i]).Generate()
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// TestSelectNeverLosesToBothRoutes judges Algorithm 1's decisions on exact
// counters, not wall time. Every query set of the serve pool, the six
// 4-motifs and sc's list runs three ways on Peregrine with one thread —
// model-decided, morphing disabled (direct), and under an edge-only policy
// that morphs every vertex-induced query (forced) — on seeded MI x0.01 and
// MG x0.003. The answers must agree, and the decided run's exact work
// (engine.Stats.Work) must be within 15 % of the better of the other two:
// the model may decline or accept, not lose to both. With -v the table is
// the forced-morph ground truth for every decision, followed by report-only
// rows: E3's remaining counting sets, one FSM level (E4) and the 4-motif
// enumeration of E7, whose forced route is the per-match hint
// internal/bench uses.
func TestSelectNeverLosesToBothRoutes(t *testing.T) {
	type route struct {
		counts []uint64
		work   uint64
		mined  int
	}
	run := func(r *core.Runner, g graph.Adjacency, qs []*pattern.Pattern) route {
		counts, st, err := r.CountsCtx(context.Background(), g, qs)
		if err != nil {
			t.Fatal(err)
		}
		return route{counts, st.Mining.Work(), len(st.Selection.Mine)}
	}
	asserted := append(append([][]string{}, servePool...), motifs4, scList)
	sets := asserted
	if reportRows := testing.Verbose() && !testing.Short() && !raceDetector; reportRows {
		sets = append(sets, e3Sets...)
	}
	for gi, g := range routeGraphs(t) {
		name := []string{"MI", "MG"}[gi]
		for si, names := range sets {
			qs := named(t, names...)
			decided := run(&core.Runner{Engine: peregrine.New(1)}, g, qs)
			direct := run(&core.Runner{Engine: peregrine.New(1), DisableMorphing: true}, g, qs)
			forced := run(&core.Runner{Engine: &engine.Model[edgeOnly]{Threads: 1}}, g, qs)
			best := min(direct.work, forced.work)
			verdict := "ok"
			switch {
			case si >= len(asserted):
				verdict = "report only"
			case !slices.Equal(decided.counts, direct.counts) || !slices.Equal(forced.counts, direct.counts):
				t.Errorf("%s %v: decided %v, direct %v, forced %v", name, names, decided.counts, direct.counts, forced.counts)
			case float64(decided.work) > 1.15*float64(best):
				verdict = "LOSES"
				t.Errorf("%s %v: decided route does %d work, direct %d, forced %d", name, names, decided.work, direct.work, forced.work)
			}
			t.Logf("%s %-58s decided %9d (%d mined)  direct %9d  forced %9d (%d mined)  decided/best %.2f  %s",
				name, strings.Join(names, " "), decided.work, decided.mined, direct.work, forced.work, forced.mined, float64(decided.work)/float64(best), verdict)
		}
	}
	if !testing.Verbose() || testing.Short() || raceDetector {
		return
	}

	// E4: the 3-edge level of 3-FSM (MNI tables: only the additive
	// direction is sound, so the forced route is a per-match cost hint).
	g, level, perMatch := fsmLevel3(t)
	for _, r := range []struct {
		label  string
		runner *core.Runner
	}{
		{"decided", &core.Runner{Engine: peregrine.New(1), PerMatchCost: perMatch}},
		{"direct", &core.Runner{Engine: peregrine.New(1), DisableMorphing: true}},
		{"forced (per-match hint 50)", &core.Runner{Engine: peregrine.New(1), PerMatchCost: 50}},
	} {
		_, st, err := r.runner.MNITablesCtx(context.Background(), g, level)
		if err != nil {
			t.Fatal(err)
		}
		morphed := 0
		for _, q := range st.Selection.Queries {
			if q.Morphed {
				morphed++
			}
		}
		t.Logf("E4 MI x0.003 3-FSM level 3 (%d candidates) %-27s work %9d, %8d UDF calls, %d mined, %d morphed  report only",
			len(level), r.label, st.Mining.Work(), st.Mining.UDFCalls, len(st.Selection.Mine), morphed)
	}

	// E7: enumerating the six edge-induced 4-motifs through a filter.
	mi := routeGraphs(t)[0]
	motifs, err := canon.AllConnectedPatterns(4)
	if err != nil {
		t.Fatal(err)
	}
	weights := se.NewWeights(mi, 0, 1, 1)
	for _, r := range []struct {
		label string
		opts  se.Options
	}{
		{"decided", se.Options{Morph: true}},
		{"direct", se.Options{}},
		{"forced (per-match hint 50)", se.Options{Morph: true, PerMatchCost: 50}},
	} {
		res, err := se.EnumerateCtx(context.Background(), mi, peregrine.New(1), motifs, weights.WithinOneStd, nil, r.opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("E7 MI x0.01 4V_E %-27s work %9d, %8d UDF calls  report only", r.label, res.Stats.Work(), res.Stats.UDFCalls)
	}
}
