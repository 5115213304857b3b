package mc

import (
	"context"
	"testing"

	"morphing/internal/autozero"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/peregrine"
	"morphing/internal/refmatch"
)

func TestCountMatchesOracle(t *testing.T) {
	g, err := dataset.ErdosRenyi(60, 8, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{3, 4} {
		res, err := CountCtx(context.Background(), g, size, peregrine.New(3), true)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range res.Patterns {
			want := refmatch.Count(g, p)
			if res.Counts[i] != want {
				t.Errorf("size %d motif %v: %d, want %d", size, p, res.Counts[i], want)
			}
		}
	}
}

func TestMorphedEqualsBaselineAcrossEngines(t *testing.T) {
	g, err := dataset.MiCo().Scaled(0.008).Generate()
	if err != nil {
		t.Fatal(err)
	}
	engines := []engine.Engine{peregrine.New(4), autozero.New(4)}
	for _, eng := range engines {
		base, err := CountCtx(context.Background(), g, 4, eng, false)
		if err != nil {
			t.Fatal(err)
		}
		morphed, err := CountCtx(context.Background(), g, 4, eng, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base.Counts {
			if base.Counts[i] != morphed.Counts[i] {
				t.Errorf("%s motif %v: baseline %d, morphed %d",
					eng.Name(), base.Patterns[i], base.Counts[i], morphed.Counts[i])
			}
		}
		if base.Total() != morphed.Total() {
			t.Errorf("%s: totals differ", eng.Name())
		}
	}
}

func TestMorphingReducesSetOperationWork(t *testing.T) {
	// The §7.1 claim at test scale: morphing motif counting reduces set
	// operation elements scanned (anti-edge differences disappear).
	g, err := dataset.MiCo().Scaled(0.01).Generate()
	if err != nil {
		t.Fatal(err)
	}
	eng := peregrine.New(2)
	base, err := CountCtx(context.Background(), g, 4, eng, false)
	if err != nil {
		t.Fatal(err)
	}
	morphed, err := CountCtx(context.Background(), g, 4, eng, true)
	if err != nil {
		t.Fatal(err)
	}
	if morphed.Stats.Mining.SetElems >= base.Stats.Mining.SetElems {
		t.Errorf("morphing did not reduce set work: %d >= %d",
			morphed.Stats.Mining.SetElems, base.Stats.Mining.SetElems)
	}
}

func TestMotifPatternCensusSizes(t *testing.T) {
	g, err := dataset.ErdosRenyi(30, 5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[int]int{3: 2, 4: 6, 5: 21}
	for size, want := range wants {
		res, err := CountCtx(context.Background(), g, size, peregrine.New(2), true)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Patterns) != want {
			t.Errorf("size %d: %d motif patterns, want %d", size, len(res.Patterns), want)
		}
	}
	if _, err := CountCtx(context.Background(), g, 2, peregrine.New(1), true); err == nil {
		t.Error("size 2 accepted")
	}
	if _, err := CountCtx(context.Background(), g, 6, peregrine.New(1), true); err == nil {
		t.Error("size 6 accepted")
	}
}
