package engine

import (
	"context"
	"testing"

	"morphing/internal/dataset"
	"morphing/internal/pattern"
	"morphing/internal/plan"
)

// BenchmarkMatchStream is the diagnosis bench for the streaming path of the
// one executor, on MI ×0.003. The labeled cases are a few dozen matches
// each, so they time what one execution costs before it binds anything —
// the repo benchmark's fsm-labeled workload pays that 533 times a query.
// The unlabeled cases stream hundreds of thousands of matches and time the
// cost per delivered match.
func BenchmarkMatchStream(b *testing.B) {
	g, err := dataset.MiCo().Scaled(0.003).Generate()
	if err != nil {
		b.Fatal(err)
	}
	labeled := func(p *pattern.Pattern, labels ...int32) *pattern.Pattern {
		return pattern.MustNew(p.N(), p.Edges(), pattern.WithLabels(labels))
	}
	for _, bc := range []struct {
		name string
		p    *pattern.Pattern
	}{
		{"labeled-edge", labeled(pattern.Edge(), 0, 1)},
		{"labeled-wedge", labeled(pattern.Wedge(), 0, 1, 0)},
		{"labeled-4-path", labeled(pattern.Path(4), 0, 1, 1, 0)},
		{"p1", pattern.TailedTriangle()},
		{"4-star", pattern.FourStar()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pl, err := plan.Build(bc.p)
			if err != nil {
				b.Fatal(err)
			}
			var perWorker [64][8]uint64 // one padded cell per worker ID
			visit := EachMatch(func(worker int, m []uint32) { perWorker[worker][0] += uint64(m[0]) })
			b.ReportAllocs()
			b.ResetTimer()
			var matches uint64
			for i := 0; i < b.N; i++ {
				n, _, err := BacktrackCtx(context.Background(), g, pl, visit, ExecOptions{}, nil)
				if err != nil {
					b.Fatal(err)
				}
				matches += n
			}
			b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
		})
	}
}
