package core

import (
	"context"
	"math"
	"testing"

	"morphing/internal/dataset"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// TestMemoryBudgetDegradesToOnTheFly checks the graceful-degradation
// knob end to end: an impossible 1-byte budget must flip MNITables to
// on-the-fly conversion, the decision must be recorded in RunStats, and
// the degraded tables must be byte-for-byte equal to the batched path's
// (the coset-representative maps composed with Aut(query) enumerate the
// same embeddings the batched Convert does).
func TestMemoryBudgetDegradesToOnTheFly(t *testing.T) {
	g, err := dataset.ErdosRenyi(40, 7, 0, 19)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*pattern.Pattern{
		pattern.FourCycle().AsEdgeInduced(),
		pattern.TailedTriangle().AsEdgeInduced(),
	}

	batched := &Runner{Engine: peregrine.New(3)}
	refTables, refStats, err := batched.MNITablesCtx(context.Background(), g, queries)
	if err != nil {
		t.Fatal(err)
	}
	if refStats.ConversionMode != "batched" {
		t.Fatalf("unbudgeted run recorded mode %q, want batched", refStats.ConversionMode)
	}

	degraded := &Runner{Engine: peregrine.New(3), MemoryBudget: 1}
	gotTables, gotStats, err := degraded.MNITablesCtx(context.Background(), g, queries)
	if err != nil {
		t.Fatal(err)
	}
	if gotStats.ConversionMode != "on-the-fly" {
		t.Fatalf("budgeted run recorded mode %q, want on-the-fly", gotStats.ConversionMode)
	}
	if gotStats.EstimatedBytes == 0 {
		t.Fatal("budgeted run did not record the match-volume estimate")
	}
	if gotStats.Partial != nil {
		t.Fatal("completed degraded run must clear partial progress")
	}
	for i := range refTables {
		if !refTables[i].Equal(gotTables[i]) {
			t.Errorf("query %d: degraded table differs from batched (support %d vs %d)",
				i, gotTables[i].Support(), refTables[i].Support())
		}
	}
}

// TestMemoryBudgetGenerousStaysBatched: a budget above the estimate must
// not degrade, but must still record the estimate it compared against.
func TestMemoryBudgetGenerousStaysBatched(t *testing.T) {
	g, err := dataset.ErdosRenyi(40, 7, 0, 19)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*pattern.Pattern{pattern.FourCycle().AsEdgeInduced()}
	r := &Runner{Engine: peregrine.New(3), MemoryBudget: 1 << 40}
	_, stats, err := r.MNITablesCtx(context.Background(), g, queries)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ConversionMode != "batched" {
		t.Fatalf("generous budget degraded to %q", stats.ConversionMode)
	}
	if stats.EstimatedBytes == 0 {
		t.Fatal("budgeted run did not record the match-volume estimate")
	}
}

// TestClampBytesFailsClosed pins the float -> uint64 step between the cost
// model and every budget comparison (EstimateAdmission's MatchBytes against
// a server's AdmissionBudget, MNITablesCtx's against MemoryBudget): an
// estimate that is no finite non-negative number must exceed any budget,
// not read as zero bytes and be admitted.
func TestClampBytesFailsClosed(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want uint64
	}{
		{math.NaN(), math.MaxUint64},
		{-1, math.MaxUint64},
		{math.Inf(1), math.MaxUint64},
		{math.Inf(-1), math.MaxUint64},
		{1 << 64, math.MaxUint64},
		{0, 0},
		{0.3, 1},
		{4096, 4096},
	} {
		if got := clampBytes(tc.in); got != tc.want {
			t.Errorf("clampBytes(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
