package enginetest

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"morphing/internal/core"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/refmatch"
)

// TestEngineConformance is the one table every engine model answers to, on
// the plain and the compressed tier: Count, CountAll, the number of
// matches Match streams and a core.Runner's counts all equal the oracle's;
// semantics a model does not match natively fail with
// ErrInducedUnsupported from every entry point; and every execution is at
// least one pass of the depth-first executor — nothing mines outside it.
func TestEngineConformance(t *testing.T) {
	plain, err := dataset.ErdosRenyi(45, 7, 3, 29)
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := graph.Compress(plain, 8)
	if err != nil {
		t.Fatal(err)
	}
	patterns := []*pattern.Pattern{
		pattern.MustNew(1, nil, pattern.WithLabels([]int32{1})),                            // single vertex
		pattern.MustNew(3, [][2]int{{0, 1}, {1, 2}}, pattern.WithLabels([]int32{0, 1, 0})), // labeled wedge
		pattern.Triangle(),
		pattern.TailedTriangle(),
		pattern.House(),
		pattern.FourClique().AsVertexInduced(),
		pattern.FourCycle().AsVertexInduced(),
		antiPatterns(t)[0],
	}
	want := make([]uint64, len(patterns))
	for i, p := range patterns {
		want[i] = refmatch.Count(plain, p)
	}
	// The runner's queries: vertex-induced non-cliques included, which
	// morphing answers on every model.
	queries := []*pattern.Pattern{pattern.Triangle(), pattern.FourCycle().AsVertexInduced(), pattern.TailedTriangle().AsVertexInduced()}

	passes := func(t *testing.T, what string, st *engine.Stats) {
		t.Helper()
		if st == nil || st.TriePasses < 1 {
			t.Errorf("%s: stats %+v report no executor pass", what, st)
		}
	}
	for _, tier := range []struct {
		name string
		g    graph.Adjacency
	}{{"plain", plain}, {"compressed", compressed}} {
		for _, e := range allEngines() {
			t.Run(tier.name+"/"+e.Name(), func(t *testing.T) {
				g := tier.g
				var native []*pattern.Pattern
				var nativeWant []uint64
				for i, p := range patterns {
					if !e.SupportsInduced(pattern.VertexInduced) &&
						(p.HasExplicitAntiEdges() || p.Induced() == pattern.VertexInduced && !p.IsClique()) {
						_, _, errC := e.CountCtx(context.Background(), g, p)
						_, _, errA := e.CountAllCtx(context.Background(), g, []*pattern.Pattern{pattern.Triangle(), p})
						_, errM := e.MatchCtx(context.Background(), g, p, func(int, []uint32) {})
						for _, err := range []error{errC, errA, errM} {
							if !errors.Is(err, engine.ErrInducedUnsupported) {
								t.Errorf("%v: err = %v, want ErrInducedUnsupported", p, err)
							}
						}
						continue
					}
					native, nativeWant = append(native, p), append(nativeWant, want[i])

					got, st, err := e.CountCtx(context.Background(), g, p)
					if err != nil || got != want[i] {
						t.Errorf("Count(%v) = %d, %v; oracle %d", p, got, err, want[i])
					}
					passes(t, "Count", st)

					var streamed atomic.Uint64
					st, err = e.MatchCtx(context.Background(), g, p, func(_ int, m []uint32) {
						if len(m) != p.N() {
							t.Errorf("Match(%v) delivered a %d-vertex match", p, len(m))
						}
						streamed.Add(1)
					})
					if err != nil || streamed.Load() != want[i] {
						t.Errorf("Match(%v) streamed %d, %v; oracle %d", p, streamed.Load(), err, want[i])
					}
					passes(t, "Match", st)
				}

				counts, st, err := e.CountAllCtx(context.Background(), g, native)
				if err != nil {
					t.Fatalf("CountAll: %v", err)
				}
				for i := range native {
					if counts[i] != nativeWant[i] {
						t.Errorf("CountAll[%v] = %d, oracle %d", native[i], counts[i], nativeWant[i])
					}
				}
				passes(t, "CountAll", st)

				r := &core.Runner{Engine: e}
				got, rst, err := r.CountsCtx(context.Background(), g, queries)
				if err != nil {
					t.Fatalf("Runner.CountsCtx: %v", err)
				}
				for i, q := range queries {
					if w := refmatch.Count(plain, q); got[i] != w {
						t.Errorf("Runner count of %v = %d, oracle %d", q, got[i], w)
					}
				}
				passes(t, "Runner.CountsCtx", rst.Mining)
			})
		}
	}
}
