package cf

import (
	"context"
	"testing"

	"morphing/internal/dataset"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/refmatch"
)

func completeGraph(n int) *graph.Graph {
	var edges [][2]uint32
	for u := uint32(0); u < uint32(n); u++ {
		for v := u + 1; v < uint32(n); v++ {
			edges = append(edges, [2]uint32{u, v})
		}
	}
	return graph.MustFromEdges(n, edges, nil)
}

func TestCountCliquesKnown(t *testing.T) {
	k6 := completeGraph(6)
	eng := peregrine.New(2)
	wants := map[int]uint64{2: 15, 3: 20, 4: 15, 5: 6, 6: 1}
	for k, want := range wants {
		got, _, err := CountCtx(context.Background(), k6, k, eng)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%d-cliques in K6: %d, want %d", k, got, want)
		}
	}
	if _, _, err := CountCtx(context.Background(), k6, 1, eng); err == nil {
		t.Error("k=1 accepted")
	}
}

func TestMaxCliqueSize(t *testing.T) {
	eng := peregrine.New(2)
	cases := []struct {
		g    *graph.Graph
		want int
	}{
		{completeGraph(5), 5},
		{graph.MustFromEdges(4, [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, nil), 2},
		{graph.MustFromEdges(5, [][2]uint32{{0, 1}, {0, 2}, {1, 2}, {3, 4}}, nil), 3},
		{graph.MustFromEdges(3, nil, nil), 1},
	}
	for i, tc := range cases {
		got, err := MaxCliqueSizeCtx(context.Background(), tc.g, 8, eng)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("case %d: max clique %d, want %d", i, got, tc.want)
		}
	}
	if _, err := MaxCliqueSizeCtx(context.Background(), completeGraph(3), 1, eng); err == nil {
		t.Error("maxK=1 accepted")
	}
}

func TestCensusStopsAtEmptySize(t *testing.T) {
	g, err := dataset.ErdosRenyi(80, 6, 0, 77)
	if err != nil {
		t.Fatal(err)
	}
	eng := peregrine.New(2)
	census, err := CensusCtx(context.Background(), g, 8, eng)
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range census {
		if want := refmatch.Count(g, pattern.Clique(k)); c != want {
			t.Errorf("%d-cliques: %d, want %d", k, c, want)
		}
	}
	// Census keys must be contiguous from 2.
	for k := 2; k <= len(census)+1; k++ {
		if _, ok := census[k]; !ok {
			t.Errorf("census missing contiguous size %d: %v", k, census)
			break
		}
	}
}

func TestEarlyTerminationActuallyStops(t *testing.T) {
	// On a graph with huge numbers of triangles, CountUpTo(1) must do far
	// less set-op work than the full count.
	g, err := dataset.MiCo().Scaled(0.01).Generate()
	if err != nil {
		t.Fatal(err)
	}
	eng := peregrine.New(2)
	full, fullStats, err := eng.CountCtx(context.Background(), g, pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	if full == 0 {
		t.Skip("no triangles at this scale")
	}
	n, earlyStats, err := peregrine.CountUpToCtx(context.Background(), eng, g, pattern.Triangle(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("early termination found nothing despite triangles existing")
	}
	if earlyStats.SetElems*10 > fullStats.SetElems {
		t.Errorf("early termination did not save work: %d vs %d full", earlyStats.SetElems, fullStats.SetElems)
	}
}
