package se

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"morphing/internal/autozero"
	"morphing/internal/canon"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/enginetest"
	"morphing/internal/graphpi"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/refmatch"
)

func TestEnumerateMorphedEqualsBaseline(t *testing.T) {
	g, err := dataset.ErdosRenyi(60, 8, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*pattern.Pattern{
		pattern.FourCycle(),
		pattern.TailedTriangle(),
	}
	w := NewWeights(g, 10, 2, 7)
	eng := peregrine.New(3)
	base, err := EnumerateCtx(context.Background(), g, eng, queries, w.WithinOneStd, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	morphed, err := EnumerateCtx(context.Background(), g, eng, queries, w.WithinOneStd, nil, Options{Morph: true, PerMatchCost: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if base.Delivered[i] != morphed.Delivered[i] {
			t.Errorf("query %v: baseline delivered %d, morphed %d",
				queries[i], base.Delivered[i], morphed.Delivered[i])
		}
		total := base.Delivered[i] + base.Filtered[i]
		if want := refmatch.Count(g, queries[i]); total != want {
			t.Errorf("query %v: %d total matches, oracle %d", queries[i], total, want)
		}
	}
	if morphed.Selection == nil {
		t.Fatal("morphed run missing selection")
	}
}

// TestEnumerateDeliversEveryMatchOnce is Algorithm 3 end to end on the
// morphed route: every connected non-clique 4-vertex query is forced to
// morph, so each vertex-induced alternative fans out to the queries it
// contains, and the stream each query receives must still be exactly the
// oracle's unique matches, each once.
func TestEnumerateDeliversEveryMatchOnce(t *testing.T) {
	checkEveryMatchOnce(t, Options{Morph: true, PerMatchCost: 1e6})
}

// TestEnumerateUnmorphedDeliversEveryMatchOnce is the same check through a
// selection that declines every morph and with morphing off.
func TestEnumerateUnmorphedDeliversEveryMatchOnce(t *testing.T) {
	checkEveryMatchOnce(t, Options{Morph: true, PerMatchCost: 1e-9}, Options{})
}

// checkEveryMatchOnce runs every connected non-clique 4-vertex edge-induced
// query on ER(40, 7) under each of optsList, with a filter that keeps
// everything, on engines that emit from 3 and from 600 worker IDs (run it
// with -race), and compares each query's stream with refmatch.Matches.
func checkEveryMatchOnce(t *testing.T, optsList ...Options) {
	t.Helper()
	g, err := dataset.ErdosRenyi(40, 7, 0, 31)
	if err != nil {
		t.Fatal(err)
	}
	shapes, err := canon.AllConnectedPatterns(4)
	if err != nil {
		t.Fatal(err)
	}
	var queries []*pattern.Pattern
	for _, s := range shapes {
		if !s.IsClique() {
			queries = append(queries, s.AsEdgeInduced())
		}
	}
	auts := make([][][]int, len(queries))
	want := make([][][]uint32, len(queries))
	for i, q := range queries {
		auts[i], want[i] = canon.Automorphisms(q), refmatch.Matches(g, q)
	}
	all := func([]uint32) bool { return true }
	for _, eng := range []engine.Engine{peregrine.New(3), autozero.New(3), enginetest.WideEngine{Workers: 600}} {
		for _, opts := range optsList {
			name := fmt.Sprintf("%s morph=%v cost=%g", eng.Name(), opts.Morph, opts.PerMatchCost)
			var mu sync.Mutex
			got := make([]map[string]int, len(queries))
			for i := range got {
				got[i] = map[string]int{}
			}
			res, err := EnumerateCtx(context.Background(), g, eng, queries, all, func(qi int, m []uint32) {
				k := fmt.Sprint(canon.CanonicalMatch(queries[qi], m, auts[qi]))
				mu.Lock()
				got[qi][k]++
				mu.Unlock()
			}, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if opts.Morph {
				// The high per-match cost forces every morph, the tiny one
				// declines every morph.
				for i, q := range res.Selection.Queries {
					if q.Morphed != (opts.PerMatchCost > 1) {
						t.Fatalf("%s: query %v morphed=%v", name, queries[i], q.Morphed)
					}
				}
			}
			for i, q := range queries {
				if len(got[i]) != len(want[i]) || res.Delivered[i] != uint64(len(want[i])) {
					t.Errorf("%s %v: %d distinct matches in %d deliveries, oracle %d", name, q, len(got[i]), res.Delivered[i], len(want[i]))
				}
				for _, m := range want[i] {
					if k := fmt.Sprint(m); got[i][k] != 1 {
						t.Errorf("%s %v: match %v delivered %d times, want 1", name, q, m, got[i][k])
					}
				}
			}
		}
	}
}

func TestEnumerateTrivialFilter(t *testing.T) {
	g, err := dataset.ErdosRenyi(40, 6, 0, 41)
	if err != nil {
		t.Fatal(err)
	}
	all := func([]uint32) bool { return true }
	res, err := EnumerateCtx(context.Background(), g, peregrine.New(2), []*pattern.Pattern{pattern.Triangle()}, all, nil, Options{Morph: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := refmatch.Count(g, pattern.Triangle()); res.Delivered[0] != want {
		t.Fatalf("delivered %d, want %d", res.Delivered[0], want)
	}
	if res.Filtered[0] != 0 {
		t.Fatalf("trivial filter rejected %d", res.Filtered[0])
	}
}

func TestEnumerateRejectsVertexInducedQueries(t *testing.T) {
	g, err := dataset.ErdosRenyi(20, 4, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := pattern.FourCycle().AsVertexInduced()
	if _, err := EnumerateCtx(context.Background(), g, peregrine.New(1), []*pattern.Pattern{q}, func([]uint32) bool { return true }, nil, Options{Morph: true}); err == nil {
		t.Fatal("vertex-induced query accepted")
	}
}

func TestEnumerateRequiresVertexCapableEngine(t *testing.T) {
	g, err := dataset.ErdosRenyi(20, 4, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = EnumerateCtx(context.Background(), g, graphpi.New(1), []*pattern.Pattern{pattern.Triangle()},
		func([]uint32) bool { return true }, nil, Options{Morph: true})
	if err == nil {
		t.Fatal("morphing enumeration accepted on an edge-only engine")
	}
}

func TestWeights(t *testing.T) {
	g, err := dataset.ErdosRenyi(5000, 4, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWeights(g, 100, 15, 9)
	if len(w.W) != g.NumVertices() {
		t.Fatal("weight count mismatch")
	}
	mean := 0.0
	for _, x := range w.W {
		mean += x
	}
	mean /= float64(len(w.W))
	if math.Abs(mean-100) > 2 {
		t.Fatalf("sample mean %v far from 100", mean)
	}
	// Determinism.
	w2 := NewWeights(g, 100, 15, 9)
	for i := range w.W {
		if w.W[i] != w2.W[i] {
			t.Fatal("weights not deterministic")
		}
	}
	// The one-std filter keeps roughly the right fraction of single
	// vertices (~68%).
	kept := 0
	for v := uint32(0); v < uint32(g.NumVertices()); v++ {
		if w.WithinOneStd([]uint32{v}) {
			kept++
		}
	}
	frac := float64(kept) / float64(g.NumVertices())
	if frac < 0.6 || frac > 0.76 {
		t.Fatalf("one-std filter kept %v of vertices, want ~0.68", frac)
	}
}

func TestMorphingReducesUDFCalls(t *testing.T) {
	// The §7.3 claim at test scale: vertex-induced alternatives have
	// fewer matches, so the filter UDF runs fewer times.
	g, err := dataset.MiCo().Scaled(0.01).Generate()
	if err != nil {
		t.Fatal(err)
	}
	queries := []*pattern.Pattern{pattern.FourCycle(), pattern.Path(4)}
	w := NewWeights(g, 0, 1, 5)
	eng := peregrine.New(2)
	base, err := EnumerateCtx(context.Background(), g, eng, queries, w.WithinOneStd, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	morphed, err := EnumerateCtx(context.Background(), g, eng, queries, w.WithinOneStd, nil, Options{Morph: true, PerMatchCost: 50})
	if err != nil {
		t.Fatal(err)
	}
	if morphed.Stats.UDFCalls >= base.Stats.UDFCalls {
		t.Errorf("morphing did not reduce UDF calls: %d >= %d",
			morphed.Stats.UDFCalls, base.Stats.UDFCalls)
	}
	for i := range queries {
		if base.Delivered[i] != morphed.Delivered[i] {
			t.Errorf("query %v: results diverged", queries[i])
		}
	}
}

// TestEnumerateUnderManyWorkerIDs runs both routes on an engine that
// emits from 600 concurrent worker IDs (run it with -race): every ID must
// own its counters, so delivered + filtered adds up to the oracle's count.
// The fixed 256-shard arrays this replaces let two live IDs share a shard.
func TestEnumerateUnderManyWorkerIDs(t *testing.T) {
	g, err := dataset.ErdosRenyi(60, 8, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*pattern.Pattern{pattern.FourCycle(), pattern.TailedTriangle()}
	w := NewWeights(g, 10, 2, 7)
	eng := enginetest.WideEngine{Workers: 600}
	for _, opts := range []Options{{}, {Morph: true, PerMatchCost: 50}} {
		res, err := EnumerateCtx(context.Background(), g, eng, queries, w.WithinOneStd, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			if got, want := res.Delivered[i]+res.Filtered[i], refmatch.Count(g, q); got != want {
				t.Errorf("morph=%v %v: delivered %d + filtered %d, oracle %d", opts.Morph, q, res.Delivered[i], res.Filtered[i], want)
			}
		}
	}
}

// TestEnumerateBaselineMinesARepeatedQueryOnce: a baseline run is the
// identity selection, so a query listed twice is mined once and every
// match reaches both entries.
func TestEnumerateBaselineMinesARepeatedQueryOnce(t *testing.T) {
	g, err := dataset.ErdosRenyi(40, 7, 0, 31)
	if err != nil {
		t.Fatal(err)
	}
	q := pattern.FourCycle()
	var mu sync.Mutex
	got := [2]map[string]int{{}, {}}
	res, err := EnumerateCtx(context.Background(), g, peregrine.New(3), []*pattern.Pattern{q, q},
		func([]uint32) bool { return true }, func(qi int, m []uint32) {
			mu.Lock()
			got[qi][fmt.Sprint(m)]++
			mu.Unlock()
		}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TriePatterns != 1 {
		t.Errorf("mined %d patterns for one query listed twice, want 1", res.Stats.TriePatterns)
	}
	want := refmatch.Count(g, q)
	for qi := range got {
		if res.Delivered[qi] != want || len(got[qi]) != int(want) {
			t.Errorf("entry %d: %d deliveries of %d distinct tuples, oracle %d", qi, res.Delivered[qi], len(got[qi]), want)
		}
	}
	if fmt.Sprint(got[0]) != fmt.Sprint(got[1]) {
		t.Error("the two entries received different tuples")
	}
}

// TestEnumerateUnmorphedReceivesTheEngineTuples: a query mined as itself,
// with morphing off or declined, receives exactly the tuples the engine's
// own MatchCtx emits for it, in the engine's vertex order (compared
// without canonicalizing).
func TestEnumerateUnmorphedReceivesTheEngineTuples(t *testing.T) {
	g, err := dataset.ErdosRenyi(40, 7, 0, 31)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*pattern.Pattern{pattern.TailedTriangle(), pattern.FourCycle(), pattern.FourStar(), pattern.Path(4)}
	eng := peregrine.New(3)
	want := make([]map[string]int, len(queries))
	for i, q := range queries {
		var mu sync.Mutex
		want[i] = map[string]int{}
		if _, err := eng.MatchCtx(context.Background(), g, q, func(_ int, m []uint32) {
			mu.Lock()
			want[i][fmt.Sprint(m)]++
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, opts := range []Options{{}, {Morph: true, PerMatchCost: 1e-9}} {
		var mu sync.Mutex
		got := make([]map[string]int, len(queries))
		for i := range got {
			got[i] = map[string]int{}
		}
		res, err := EnumerateCtx(context.Background(), g, eng, queries, func([]uint32) bool { return true }, func(qi int, m []uint32) {
			mu.Lock()
			got[qi][fmt.Sprint(m)]++
			mu.Unlock()
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range res.Selection.Queries {
			if q.Morphed {
				t.Fatalf("morph=%v: query %v morphed", opts.Morph, queries[i])
			}
		}
		for i, q := range queries {
			if len(want[i]) == 0 || fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Errorf("morph=%v %v: %d distinct tuples delivered, the engine emits %d (or different ones)", opts.Morph, q, len(got[i]), len(want[i]))
			}
		}
	}
}
