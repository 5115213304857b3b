package morphing

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	g, err := GenerateDataset("MI", 0.005)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine("peregrine", 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CountMotifs(context.Background(), g, 3, eng, Options{Morph: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := CountMotifs(context.Background(), g, 3, eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Counts {
		if res.Counts[i] != base.Counts[i] {
			t.Errorf("motif %v: morphed %d, baseline %d", res.Patterns[i], res.Counts[i], base.Counts[i])
		}
	}
}

func TestEngineConstruction(t *testing.T) {
	for _, name := range EngineNames() {
		eng, err := NewEngine(strings.ToUpper(name), 1)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.EqualFold(eng.Name(), name) {
			t.Errorf("engine %q reports name %q", name, eng.Name())
		}
	}
	if _, err := NewEngine("sparkplug", 1); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestGraphHelpers(t *testing.T) {
	g, err := NewGraph(3, [][2]uint32{{0, 1}, {1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := LoadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 2 {
		t.Fatalf("round trip lost edges: %d", h.NumEdges())
	}
	parts, err := PartitionGraph(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("partitioned into %d", len(parts))
	}
}

func TestPatternHelpers(t *testing.T) {
	p, err := ParsePattern("n=4;e=0-1,1-2,2-3,3-0;v")
	if err != nil {
		t.Fatal(err)
	}
	named, err := PatternByName("4-cycle")
	if err != nil {
		t.Fatal(err)
	}
	if p.EdgeCount() != named.EdgeCount() {
		t.Fatal("parsed and named 4-cycle disagree")
	}
	motifs, err := MotifPatterns(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(motifs) != 6 {
		t.Fatalf("MotifPatterns(4) = %d", len(motifs))
	}
	if _, err := NewPattern(2, [][2]int{{0, 1}}); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetsListing(t *testing.T) {
	if len(Datasets()) != 5 {
		t.Fatalf("Datasets() = %d recipes", len(Datasets()))
	}
	if _, err := GenerateDataset("nope", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestFacadeEnumeration(t *testing.T) {
	g, err := GenerateDataset("OK", 0.0002)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine("peregrine", 2)
	if err != nil {
		t.Fatal(err)
	}
	tri, err := PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWeights(g, 0, 1, 11)
	res, err := EnumerateSubgraphs(context.Background(), g, eng, []*Pattern{tri}, w.WithinOneStd, nil, EnumOptions{Morph: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered[0]+res.Filtered[0] == 0 {
		t.Fatal("no triangles on a social-style graph")
	}
}

func TestFacadeFSM(t *testing.T) {
	g, err := GenerateDataset("MI", 0.002)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine("peregrine", 2)
	if err != nil {
		t.Fatal(err)
	}
	freq, _, err := MineFrequent(context.Background(), g, eng, FSMOptions{MaxEdges: 2, MinSupport: 3, Morph: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(freq) == 0 {
		t.Fatal("no frequent patterns at a low threshold")
	}
}

// TestFacadeCancellation: a mining call under an already-cancelled
// context returns the typed interruption, CliqueCensus included.
func TestFacadeCancellation(t *testing.T) {
	g, err := GenerateDataset("MI", 0.002)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine("peregrine", 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	check := func(call string, err error) {
		t.Helper()
		if !Interrupted(err) || !errors.Is(err, ErrCanceled) {
			t.Errorf("%s under a cancelled context: err = %v, want ErrCanceled", call, err)
		}
	}
	_, err = CountMotifs(ctx, g, 3, eng, Options{Morph: true})
	check("CountMotifs", err)
	_, _, err = MineFrequent(ctx, g, eng, FSMOptions{MaxEdges: 2, MinSupport: 3, Morph: true})
	check("MineFrequent", err)
	_, err = CliqueCensus(ctx, g, 6, eng)
	check("CliqueCensus", err)
}

func TestFacadeCliquesAndEquations(t *testing.T) {
	g, err := GenerateDataset("MI", 0.002)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine("peregrine", 2)
	if err != nil {
		t.Fatal(err)
	}
	census, err := CliqueCensus(context.Background(), g, 6, eng)
	if err != nil {
		t.Fatal(err)
	}
	if census[2] != uint64(g.NumEdges()) {
		t.Fatalf("2-clique count %d != edge count %d", census[2], g.NumEdges())
	}
	maxK, err := MaxCliqueSize(context.Background(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if maxK <= 6 {
		if _, ok := census[maxK]; !ok {
			t.Fatalf("max clique %d missing from census %v", maxK, census)
		}
	}
	c4, err := PatternByName("4-cycle")
	if err != nil {
		t.Fatal(err)
	}
	eqE, eqV, err := MorphingEquations(c4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eqE, "3·[4-clique]") || !strings.Contains(eqV, " - 3·[4-clique]") {
		t.Fatalf("equations wrong: %q / %q", eqE, eqV)
	}
	sorted, remap := SortGraphByDegree(g)
	if sorted.NumEdges() != g.NumEdges() || len(remap) != g.NumVertices() {
		t.Fatal("degree sort changed the graph")
	}
}
