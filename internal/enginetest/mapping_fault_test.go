package enginetest

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"morphing/internal/apps/se"
	"morphing/internal/core"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// TestMappingFaultIsTyped truncates a mapped .mcsr under its open handle
// and mines it. Whichever read faults first — an executor worker's,
// once an earlier run has built the hot rows and the summary, or the
// hot-row build's, when the file shrank before the first run — the run
// ends in one typed error out of Runner.CountsCtx or se.EnumerateCtx,
// graph.ErrMappingFault reachable through *engine.PanicError, and the
// process lives on.
func TestMappingFaultIsTyped(t *testing.T) {
	r, err := dataset.ByName("MI")
	if err != nil {
		t.Fatal(err)
	}
	g, err := r.Scaled(1500 / float64(r.Vertices)).Generate()
	if err != nil {
		t.Fatal(err)
	}
	c, err := graph.Compress(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	qs := []*pattern.Pattern{pattern.Triangle(), pattern.FourCycle().AsVertexInduced()}
	run := &core.Runner{Engine: peregrine.New(2)}
	count := func(g graph.Adjacency) error {
		_, _, err := run.CountsCtx(context.Background(), g, qs)
		return err
	}
	// Morphed enumeration summarizes the graph before it mines: the hot-row
	// build faults on the caller's goroutine, outside any worker.
	enumerate := func(g graph.Adjacency) error {
		_, err := se.EnumerateCtx(context.Background(), g, peregrine.New(2), []*pattern.Pattern{pattern.FourCycle()},
			func([]uint32) bool { return true }, nil, se.Options{Morph: true, PerMatchCost: 1})
		return err
	}
	for _, tc := range []struct {
		name   string
		warm   bool // count once before the truncation
		mine   func(graph.Adjacency) error
		worker func(int) bool // who recovered the fault
	}{
		{"executor", true, count, func(w int) bool { return w >= 0 }},
		{"hot-row build", false, count, func(w int) bool { return w == -1 }},
		{"enumeration", false, enumerate, func(w int) bool { return w == -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "g.mcsr")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.WriteBinary2(f); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			h, err := graph.Open(path, graph.OpenOptions{Mode: graph.OpenMmap})
			if err != nil {
				t.Skipf("no mmap: %v", err)
			}
			defer h.Close()
			if tc.warm {
				if err := count(h.Graph()); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
			err = tc.mine(h.Graph())
			var pe *engine.PanicError
			if !errors.Is(err, graph.ErrMappingFault) || !errors.As(err, &pe) || !tc.worker(pe.Worker) {
				t.Fatalf("%s over a truncated mapping: %v, want graph.ErrMappingFault in a *engine.PanicError", tc.name, err)
			}
		})
	}
}
