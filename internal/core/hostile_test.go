package core

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"morphing/internal/costmodel"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// TestHostilePatternsAreMinedDirectly: a pattern whose superpattern
// closure is astronomically large — the eager S-DAG of a 9-vertex path did
// not finish in two minutes — costs the transformation one bounded look
// (maxUpSet structures), is recorded as unmorphable in the explain trace,
// and is answered as the engine answers it directly. The 12-vertex star
// also has 11! automorphisms, which neither canon nor plan may list.
func TestHostilePatternsAreMinedDirectly(t *testing.T) {
	g, err := dataset.ErdosRenyi(45, 5, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A hang fails the test through the deadline instead of the suite's.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, q := range []*pattern.Pattern{pattern.Path(10), pattern.Star(12)} {
		d, err := BuildSDAG([]*pattern.Pattern{q})
		if err != nil || d.Materialized() != 1 {
			t.Fatalf("%v: BuildSDAG built %d structures (err %v), want the query alone", q, d.Materialized(), err)
		}
		want, _, err := (&Runner{Engine: peregrine.New(2), DisableMorphing: true}).CountsCtx(ctx, g, []*pattern.Pattern{q})
		if err != nil {
			t.Fatal(err)
		}
		for _, explain := range []bool{false, true} {
			got, st, err := (&Runner{Engine: peregrine.New(2), Explain: explain}).CountsCtx(ctx, g, []*pattern.Pattern{q})
			if err != nil {
				t.Fatalf("%v explain=%v: %v", q, explain, err)
			}
			sel := st.Selection
			if got[0] != want[0] || sel.Queries[0].Morphed || len(sel.Mine) != 1 {
				t.Errorf("%v explain=%v: count %d (direct %d), morphed %v, %d patterns mined", q, explain, got[0], want[0], sel.Queries[0].Morphed, len(sel.Mine))
			}
			if built := sel.SDAG.Materialized(); built > 2*maxUpSet {
				t.Errorf("%v explain=%v: %d structures built, bound %d", q, explain, built, maxUpSet)
			}
			// Every member is live under explain, so the refusal is on record.
			if explain && !slices.Contains(sel.Explain.Unmorphable, sel.Queries[0].Node.Pattern.String()) {
				t.Errorf("%v: refusal missing from the explain trace: %v", q, sel.Explain.Unmorphable)
			}
		}
	}
}

// pollsThenCancels is a context that reports cancellation from its
// (left+1)-th Err call on.
type pollsThenCancels struct {
	context.Context
	left *atomic.Int32
}

func (c pollsThenCancels) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSelectStopsMidExpansion: superpattern generation polls the context,
// so a cancellation or a deadline that arrives while an up-set is being
// built ends Select — and the run — with the typed error.
func TestSelectStopsMidExpansion(t *testing.T) {
	g, err := dataset.ErdosRenyi(45, 5, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*pattern.Pattern{pattern.Path(10)}
	d, err := BuildSDAG(queries)
	if err != nil {
		t.Fatal(err)
	}
	cost := DefaultCostFunc(costmodel.NewDefault(graph.Summarize(g)), 0)
	ctx := pollsThenCancels{context.Background(), new(atomic.Int32)}
	ctx.left.Store(40)
	if _, err := Select(ctx, d, queries, cost, PolicyAny, SelectOptions{Explain: true}); !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("Select cancelled at its 41st poll returned %v, want engine.ErrCanceled", err)
	}
	if built := d.Materialized(); built < 40 || built > maxUpSet {
		t.Errorf("%d structures built before the cancellation was seen", built)
	}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, err = (&Runner{Engine: peregrine.New(2), Explain: true}).CountsCtx(expired, g, queries)
	if !errors.Is(err, engine.ErrDeadlineExceeded) {
		t.Fatalf("run past its deadline returned %v, want engine.ErrDeadlineExceeded", err)
	}
}
