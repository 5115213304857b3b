package fsm

import (
	"context"
	"testing"

	"morphing/internal/canon"
	"morphing/internal/dataset"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

func labeledGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := dataset.ErdosRenyi(80, 8, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMineFindsFrequentEdges(t *testing.T) {
	g := labeledGraph(t)
	freq, stats, err := MineCtx(context.Background(), g, peregrine.New(2), Options{MaxEdges: 1, MinSupport: 5, Morph: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(freq) == 0 {
		t.Fatal("no frequent single edges on a dense labeled graph")
	}
	for _, f := range freq {
		if f.Pattern.EdgeCount() != 1 {
			t.Errorf("level-1 run emitted %v", f.Pattern)
		}
		if f.Support < 5 {
			t.Errorf("support %d below threshold", f.Support)
		}
	}
	if stats.Levels != 1 {
		t.Errorf("levels = %d", stats.Levels)
	}
}

func TestMineMorphedEqualsBaseline(t *testing.T) {
	g := labeledGraph(t)
	opts := Options{MaxEdges: 3, MinSupport: 12}
	base, _, err := MineCtx(context.Background(), g, peregrine.New(3), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Morph = true
	morphed, _, err := MineCtx(context.Background(), g, peregrine.New(3), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(morphed) {
		t.Fatalf("baseline found %d frequent patterns, morphed %d", len(base), len(morphed))
	}
	supports := map[uint64]int{}
	for _, f := range base {
		supports[canon.StructureID(f.Pattern)] = f.Support
	}
	for _, f := range morphed {
		want, ok := supports[canon.StructureID(f.Pattern)]
		if !ok {
			t.Errorf("morphed-only pattern %v", f.Pattern)
			continue
		}
		if f.Support != want {
			t.Errorf("pattern %v: morphed support %d, baseline %d", f.Pattern, f.Support, want)
		}
	}
}

func TestMineUnlabeledGraph(t *testing.T) {
	g, err := dataset.ErdosRenyi(60, 6, 0, 21)
	if err != nil {
		t.Fatal(err)
	}
	freq, _, err := MineCtx(context.Background(), g, peregrine.New(2), Options{MaxEdges: 2, MinSupport: 10, Morph: true})
	if err != nil {
		t.Fatal(err)
	}
	// Unlabeled: level 1 has exactly the single edge; level 2 the wedge.
	if len(freq) != 2 {
		t.Fatalf("found %d frequent patterns, want 2 (edge, wedge): %v", len(freq), freq)
	}
}

func TestAntimonotoneSupports(t *testing.T) {
	// MNI is anti-monotone: a superpattern's support cannot exceed its
	// subpattern's.
	g := labeledGraph(t)
	freq, _, err := MineCtx(context.Background(), g, peregrine.New(2), Options{MaxEdges: 3, MinSupport: 8, Morph: true})
	if err != nil {
		t.Fatal(err)
	}
	bySize := map[int]int{}
	for _, f := range freq {
		if f.Support > bySize[f.Pattern.EdgeCount()] {
			bySize[f.Pattern.EdgeCount()] = f.Support
		}
	}
	for e := 2; e <= 3; e++ {
		if bySize[e] == 0 {
			continue
		}
		if bySize[e] > bySize[e-1] {
			t.Errorf("max support at %d edges (%d) exceeds %d edges (%d)", e, bySize[e], e-1, bySize[e-1])
		}
	}
}

func TestMineValidation(t *testing.T) {
	g := labeledGraph(t)
	if _, _, err := MineCtx(context.Background(), g, peregrine.New(1), Options{MaxEdges: 0, MinSupport: 1}); err == nil {
		t.Error("MaxEdges 0 accepted")
	}
	if _, _, err := MineCtx(context.Background(), g, peregrine.New(1), Options{MaxEdges: 1, MinSupport: 0}); err == nil {
		t.Error("MinSupport 0 accepted")
	}
}

func TestExtendDeduplicates(t *testing.T) {
	wedgeLabeled := pattern.MustNew(3, [][2]int{{0, 1}, {1, 2}},
		pattern.WithLabels([]int32{1, 1, 1}))
	out := extend([]*pattern.Pattern{wedgeLabeled}, []int32{1})
	seen := map[uint64]bool{}
	for _, p := range out {
		id := canon.StructureID(p)
		if seen[id] {
			t.Fatalf("duplicate candidate %v", p)
		}
		seen[id] = true
		if p.EdgeCount() != 3 {
			t.Fatalf("extension %v has %d edges", p, p.EdgeCount())
		}
	}
	// Same-labeled wedge extends to: triangle, 3-path, 3-star — exactly 3
	// distinct structures.
	if len(out) != 3 {
		t.Fatalf("got %d extensions, want 3: %v", len(out), out)
	}
}

func TestSeedPatternsRespectLabelFrequency(t *testing.T) {
	// Build a tiny graph where label 9 appears once: it cannot support
	// threshold 2, so no seed may use it.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.SetLabels([]int32{1, 1, 1, 9})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	labels := frequentLabels(g, 2)
	if len(labels) != 1 || labels[0] != 1 {
		t.Fatalf("frequent labels = %v, want [1]", labels)
	}
	seeds := seedPatterns(g, labels)
	if len(seeds) != 1 {
		t.Fatalf("seeds = %v, want the single 1-1 edge", seeds)
	}
}
