package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"morphing/internal/canon"
	"morphing/internal/dataset"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/refmatch"
)

func TestOnTheFlyVisitorIdentity(t *testing.T) {
	p := pattern.Triangle()
	called := 0
	v, err := OnTheFlyVisitor(p, p, func(_ int, m []uint32) { called++ })
	if err != nil {
		t.Fatal(err)
	}
	v(0, []uint32{1, 2, 3})
	if called != 1 {
		t.Fatalf("identity wrapper called %d times", called)
	}
}

func TestOnTheFlyVisitorExpandsCopies(t *testing.T) {
	// A K4 match contains three edge-induced 4-cycles: the wrapper must
	// emit three distinct converted matches.
	p := pattern.FourCycle()
	q := pattern.FourClique()
	var got [][]uint32
	v, err := OnTheFlyVisitor(p, q, func(_ int, m []uint32) {
		got = append(got, append([]uint32(nil), m...))
	})
	if err != nil {
		t.Fatal(err)
	}
	v(0, []uint32{10, 20, 30, 40})
	if len(got) != 3 {
		t.Fatalf("emitted %d converted matches, want 3", len(got))
	}
	// Each emission must be a valid C4 embedding over the same 4 vertices,
	// and the three must be distinct subgraphs.
	auts := canon.Automorphisms(p)
	seen := map[string]bool{}
	for _, m := range got {
		seen[fmt.Sprint(canon.CanonicalMatch(p, m, auts))] = true
	}
	if len(seen) != 3 {
		t.Fatalf("converted matches are not distinct subgraphs: %v", got)
	}
}

func TestOnTheFlyVisitorNoMaps(t *testing.T) {
	if _, err := OnTheFlyVisitor(pattern.FourStar(), pattern.FourCycle(), func(int, []uint32) {}); err == nil {
		t.Fatal("expected error when p does not occur in q")
	}
}

// TestStreamMorphedMatchesDirect runs Algorithm 3 end to end on a real
// engine: the morphed stream of an edge-induced query must deliver
// exactly the oracle's unique matches, once each.
func TestStreamMorphedMatchesDirect(t *testing.T) {
	g, err := dataset.ErdosRenyi(40, 7, 0, 31)
	if err != nil {
		t.Fatal(err)
	}
	eng := peregrine.New(3)
	for _, base := range fourPatterns(t) {
		q := base.AsEdgeInduced()
		d, err := BuildSDAG([]*pattern.Pattern{q})
		if err != nil {
			t.Fatal(err)
		}
		sel, err := Select(context.Background(), d, []*pattern.Pattern{q}, forceMorphCosts([]*pattern.Pattern{q}), PolicyVertexOnly, SelectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		auts := canon.Automorphisms(q)
		var mu sync.Mutex
		got := map[string]int{}
		st, err := StreamMorphedCtx(context.Background(), sel, 0, eng, g, func(_ int, m []uint32) {
			k := fmt.Sprint(canon.CanonicalMatch(q, m, auts))
			mu.Lock()
			got[k]++
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		want := refmatch.Matches(g, q)
		if len(got) != len(want) {
			t.Errorf("pattern %v: streamed %d unique matches, oracle %d", q, len(got), len(want))
		}
		for _, m := range want {
			k := fmt.Sprint(m)
			if got[k] != 1 {
				t.Errorf("pattern %v: match %v delivered %d times, want 1", q, m, got[k])
			}
		}
		if st == nil {
			t.Fatal("missing stats")
		}
	}
}

// TestStreamMorphedUnmorphed covers the direct path (selection decided
// not to morph).
func TestStreamMorphedUnmorphed(t *testing.T) {
	g, err := dataset.ErdosRenyi(30, 6, 0, 77)
	if err != nil {
		t.Fatal(err)
	}
	q := pattern.TailedTriangle()
	d, err := BuildSDAG([]*pattern.Pattern{q})
	if err != nil {
		t.Fatal(err)
	}
	neverMorph := func(n *Node) Costs { return Costs{E: 1, V: 1e9} }
	sel, err := Select(context.Background(), d, []*pattern.Pattern{q}, additive(neverMorph), PolicyVertexOnly, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Queries[0].Morphed {
		t.Fatal("unexpected morph")
	}
	var mu sync.Mutex
	count := 0
	if _, err := StreamMorphedCtx(context.Background(), sel, 0, peregrine.New(2), g, func(int, []uint32) {
		mu.Lock()
		count++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if want := int(refmatch.Count(g, q)); count != want {
		t.Fatalf("direct stream delivered %d matches, want %d", count, want)
	}
}

// TestStreamMorphedRejectsVertexInducedQueries: streaming is additive
// only.
func TestStreamMorphedRejectsVertexQueries(t *testing.T) {
	g, err := dataset.ErdosRenyi(20, 4, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	q := pattern.FourCycle().AsVertexInduced()
	d, err := BuildSDAG([]*pattern.Pattern{q})
	if err != nil {
		t.Fatal(err)
	}
	// Force a morph so the stream would need subtraction.
	sel, err := Select(context.Background(), d, []*pattern.Pattern{q}, forceMorphCosts([]*pattern.Pattern{q}), PolicyAny, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Queries[0].Morphed {
		t.Skip("selection did not morph; nothing to reject")
	}
	if _, err := StreamMorphedCtx(context.Background(), sel, 0, peregrine.New(1), g, func(int, []uint32) {}); err == nil {
		t.Fatal("vertex-induced morphed stream accepted")
	}
}
