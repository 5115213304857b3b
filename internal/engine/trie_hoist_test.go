package engine

import (
	"context"
	"testing"

	"morphing/internal/canon"
	"morphing/internal/dataset"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/plan"
	"morphing/internal/refmatch"
)

// mergedTrie builds the default-order plans of ps (Peregrine's planner)
// and merges them.
func mergedTrie(t testing.TB, ps []*pattern.Pattern) *plan.Trie {
	t.Helper()
	plans := make([]*plan.Plan, len(ps))
	for i, p := range ps {
		pl, err := plan.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = pl
	}
	tr, err := plan.MergePlans(plans)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func parsePatterns(t testing.TB, specs ...string) []*pattern.Pattern {
	t.Helper()
	ps := make([]*pattern.Pattern, len(specs))
	for i, s := range specs {
		p, err := pattern.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	return ps
}

func motifs4(t testing.TB, iv pattern.Induced) []*pattern.Pattern {
	t.Helper()
	all4, err := canon.AllConnectedPatterns(4)
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]*pattern.Pattern, len(all4))
	for i, p := range all4 {
		ps[i] = p.Variant(iv)
	}
	return ps
}

// p4Winners is the alternative set Algorithm 1 mines for the Fig. 11a
// query p4 (the retired trie benchmark's "p4" set): eight 5-vertex edge-induced
// patterns whose deep levels share prefixes across more than one frame.
func p4Winners(t testing.TB) []*pattern.Pattern {
	return parsePatterns(t,
		"n=5;e=0-3,0-4,1-2,1-3,1-4,2-3,2-4,3-4",
		"n=5;e=0-1,0-2,0-3,0-4,1-2,1-3,1-4,2-3,2-4,3-4",
		"n=5;e=0-2,0-3,0-4,1-2,1-3,1-4,2-4,3-4",
		"n=5;e=0-2,0-3,1-3,1-4,2-4",
		"n=5;e=0-2,0-3,0-4,1-2,1-3,1-4,2-3,2-4,3-4",
		"n=5;e=0-2,0-4,1-3,1-4,2-3,2-4,3-4",
		"n=5;e=0-1,0-2,1-3,1-4,2-3,2-4,3-4",
		"n=5;e=0-1,0-3,1-4,2-3,2-4,3-4")
}

// TestPooledTrieWorkerNeverServesStaleBase drives one pooled worker
// (Threads: 1) through tries of different depth and node count and then
// back through the first shape on another graph, where its base buffers
// and stamps survive from the earlier pass: every pass must count what the
// brute-force oracle counts.
func TestPooledTrieWorkerNeverServesStaleBase(t *testing.T) {
	g1, err := dataset.ErdosRenyi(60, 9, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := dataset.ErdosRenyi(60, 9, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	five, four := mergedTrie(t, p4Winners(t)), mergedTrie(t, motifs4(t, pattern.VertexInduced))
	if five.MaxDepth == four.MaxDepth || five.Nodes == four.Nodes {
		t.Fatal("the two tries must differ in depth and node count")
	}
	want := map[*graph.Graph]map[*plan.Trie][]uint64{g1: {}, g2: {}}
	for g, byTrie := range want {
		for _, tr := range []*plan.Trie{five, four} {
			for _, pl := range tr.Plans {
				byTrie[tr] = append(byTrie[tr], refmatch.Count(g, pl.Pattern))
			}
		}
	}
	for round := 0; round < 3; round++ {
		for _, pass := range []struct {
			g  *graph.Graph
			tr *plan.Trie
		}{{g1, five}, {g2, five}, {g1, four}, {g2, five}, {g2, four}, {g1, five}} {
			want := want[pass.g][pass.tr]
			got, _, err := BacktrackTrieCtx(context.Background(), pass.g, pass.tr, ExecOptions{Threads: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("round %d, trie of depth %d, plan %d: pooled worker counted %d, oracle %d",
						round, pass.tr.MaxDepth, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkTrieHoist is the diagnosis bench for bind-time hoisting: one
// trie pass over the morphed and the direct 4-motif sets (the repo
// benchmark's mc4-morph / mc4-direct mining step) and over the 5-vertex p4
// winner set, reporting set operations and allocations per pass.
func BenchmarkTrieHoist(b *testing.B) {
	for _, bc := range []struct {
		name  string
		rec   dataset.Recipe
		scale float64
		ps    []*pattern.Pattern
	}{
		{"4-motifs-morphed/MGx0.003", dataset.MAG(), 0.003, motifs4(b, pattern.EdgeInduced)},
		{"4-motifs-direct/MGx0.003", dataset.MAG(), 0.003, motifs4(b, pattern.VertexInduced)},
		{"p4/MIx0.005", dataset.MiCo(), 0.005, p4Winners(b)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			g, err := bc.rec.Scaled(bc.scale).Generate()
			if err != nil {
				b.Fatal(err)
			}
			tr := mergedTrie(b, bc.ps)
			b.ReportAllocs()
			b.ResetTimer()
			var ops uint64
			for i := 0; i < b.N; i++ {
				_, st, err := BacktrackTrieCtx(context.Background(), g, tr, ExecOptions{}, nil)
				if err != nil {
					b.Fatal(err)
				}
				ops += st.SetOps
			}
			b.ReportMetric(float64(ops)/float64(b.N), "setops/op")
		})
	}
}

// TestLabelRowsBuiltByTheFirstLabeledPass: the label-row index is paid for
// by the first pass that has a labeled level below its roots and by nothing
// else — unlabeled patterns on a labeled graph, counted or streamed, leave
// the graph without it (the unlabeled workloads' time and memory must not
// move), and so does a labeled single vertex, which its root tests itself.
func TestLabelRowsBuiltByTheFirstLabeledPass(t *testing.T) {
	g, err := dataset.MiCo().Scaled(0.002).Generate()
	if err != nil {
		t.Fatal(err)
	}
	all4, err := canon.AllConnectedPatterns(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := BacktrackTrieCtx(context.Background(), g, mergedTrie(t, all4), ExecOptions{Threads: 2}, nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*pattern.Pattern{pattern.Triangle().AsVertexInduced(), pattern.MustNew(1, nil, pattern.WithLabels([]int32{0}))} {
		if _, _, err := BacktrackCtx(context.Background(), g, mergedTrie(t, []*pattern.Pattern{p}).Plans[0], EachMatch(func(int, []uint32) {}), ExecOptions{Threads: 2}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if b := g.LabelRowsBytes(); b != 0 {
		t.Fatalf("unlabeled passes built a %d B label-row index", b)
	}
	wedge := pattern.MustNew(3, pattern.Wedge().Edges(), pattern.WithLabels([]int32{0, 1, pattern.Unlabeled}))
	got, _, err := BacktrackCtx(context.Background(), g, mergedTrie(t, []*pattern.Pattern{wedge}).Plans[0], nil, ExecOptions{Threads: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := refmatch.Count(g, wedge); got != want || g.LabelRowsBytes() == 0 {
		t.Fatalf("labeled wedge: count %d (oracle %d) with a %d B index", got, want, g.LabelRowsBytes())
	}
}
