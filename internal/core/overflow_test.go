package core

import (
	"context"
	"errors"
	"testing"

	"morphing/internal/aggr"
	"morphing/internal/pattern"
)

// fabricated counts are made up: per structure, the totals a 100M-edge
// graph could produce, with no graph behind them.
type fabricated map[string]uint64 // by pattern name

func (f fabricated) count(p *pattern.Pattern) uint64 {
	for name, c := range f {
		if q, err := pattern.ByName(name); err == nil && sameStructure(q, p) {
			return c
		}
	}
	panic("no fabricated count for " + p.String())
}

// TestCountOverflowIsTyped: vertex-induced 4-star counted through its
// edge-induced alternatives is e(4-star) - e(tailed triangle) + 2 e(diamond)
// - 4 e(4-clique), evaluated as nested sums and differences of uint64. Fed
// fabricated per-alternative totals near 2^63, every way that arithmetic can
// leave the range must come back as ErrCountOverflow — from Convert, and
// from convertRun, the step Runner.CountsCtx returns through after mining —
// and never as a number; totals that stay in range convert exactly, even
// above 2^63. With the carry check of aggr.Count.Combine dropped, "a sum
// beyond 2^64" returns 7 and no error; with the borrow check of Uncombine
// dropped, "a difference below zero" returns 18446744073709551612: each
// mutation fails this test.
func TestCountOverflowIsTyped(t *testing.T) {
	const (
		top = uint64(1) << 63
		// 6 x sixth = 2^64 + 2: the six diamonds of every 4-clique wrap to 2.
		sixth = (1<<64-1)/6 + 1
	)
	q := pattern.FourStar().AsVertexInduced()
	for _, tc := range []struct {
		name                         string
		star, tailed, diamond, kfour uint64
		want                         uint64 // 0: ErrCountOverflow
	}{
		{"in range above 2^63", top + 5, 0, 0, 0, top + 5},
		// diamond:v 8-6 = 2, tailed:v 30-4*2-12 = 10, star:v s-10-2*2-4.
		{"in range, every term", top + 40, 30, 8, 1, top + 22},
		// Wrapped, diamond:v is 10-2, tailed:v 40-4*8-4 and star:v comes
		// out as 7: a plausible small count.
		{"a sum beyond 2^64", 4*sixth + 4 + 2*8 + 7, 40, 10, sixth, 0},
		{"a difference below zero", 1, 5, 0, 0, 0},
	} {
		fab := fabricated{"4-star": tc.star, "tailed-triangle": tc.tailed, "chordal-4-cycle": tc.diamond, "4-clique": tc.kfour}
		d, err := BuildSDAG([]*pattern.Pattern{q})
		if err != nil {
			t.Fatal(err)
		}
		sel, err := Select(context.Background(), d, []*pattern.Pattern{q}, forceMorphCosts([]*pattern.Pattern{q}), PolicyEdgeOnly, SelectOptions{})
		if err != nil || len(sel.Mine) != 4 {
			t.Fatalf("selection: %d mined, err %v", len(sel.Mine), err)
		}
		counts := make([]uint64, len(sel.Mine))
		mined := make([]aggr.Value, len(sel.Mine))
		for i, c := range sel.Mine {
			counts[i] = fab.count(c.Pattern)
			mined[i] = counts[i]
		}
		vals, err := sel.Convert(aggr.Count{}, mined)
		got, rerr := convertRun(sel, aggr.Count{}, counts, &RunStats{})
		if tc.want == 0 {
			if !errors.Is(err, ErrCountOverflow) || !errors.Is(rerr, ErrCountOverflow) {
				t.Errorf("%s: Convert returned %v, %v and convertRun %v, %v; want ErrCountOverflow from both", tc.name, vals, err, got, rerr)
			}
			continue
		}
		if err != nil || rerr != nil || vals[0].(uint64) != tc.want || got[0] != tc.want {
			t.Errorf("%s: Convert %v (%v), convertRun %v (%v), want %d", tc.name, vals, err, got, rerr, tc.want)
		}
	}
}

// TestEquationAndAssignmentArithmeticIsChecked: Equation.Verify, the other
// place that multiplies a coefficient into a count, fails typed as well,
// and so does Convert on a Fig. 15e sampled set (an arbitrary variant
// assignment).
func TestEquationAndAssignmentArithmeticIsChecked(t *testing.T) {
	star := pattern.FourStar()
	d, err := BuildSDAG([]*pattern.Pattern{star})
	if err != nil {
		t.Fatal(err)
	}
	eq, err := EdgeInducedEquation(d, star) // e(star) = v(star) + v(tailed) + 2 v(diamond) + 4 v(K4)
	if err != nil {
		t.Fatal(err)
	}
	huge := func(*pattern.Pattern) uint64 { return 1 << 62 }
	if err := eq.Verify(huge); !errors.Is(err, ErrCountOverflow) {
		t.Errorf("Verify over counts of 2^62: %v, want ErrCountOverflow", err)
	}
	sels, err := EnumerateAssignments(d, []*pattern.Pattern{star.AsVertexInduced()}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	mined := make([]aggr.Value, len(sels[1].Mine)) // all edge-induced
	for i := range mined {
		mined[i] = uint64(1) << 62
	}
	if _, err := sels[1].Convert(aggr.Count{}, mined); !errors.Is(err, ErrCountOverflow) {
		t.Errorf("Convert of a sampled set over counts of 2^62: %v, want ErrCountOverflow", err)
	}
}
