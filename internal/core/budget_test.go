package core

import (
	"math"
	"testing"
)

// TestClampBytesFailsClosed pins the float -> uint64 step between the cost
// model and the admission budget (EstimateAdmission's MatchBytes against a
// server's AdmissionBudget): an estimate that is no finite non-negative
// number must exceed any budget, not read as zero bytes and be admitted.
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
