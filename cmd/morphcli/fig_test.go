package main

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"morphing/internal/bench"
	"morphing/internal/engine"
)

// TestFig: with no ID fig lists the registry; an unknown ID fails before
// any CSV is written; an experiment's rows follow its header; and an
// interrupted experiment ends its partial rows with the PARTIAL marker.
func TestFig(t *testing.T) {
	ctx := context.Background()
	var out bytes.Buffer
	if err := cmdFig(ctx, nil, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, e := range bench.Registry() {
		if !strings.Contains(out.String(), e.ID+" ") {
			t.Errorf("listing lacks %s:\n%s", e.ID, out.String())
		}
	}

	out.Reset()
	err := cmdFig(ctx, []string{"99z"}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "12a") || out.Len() != 0 {
		t.Errorf("fig 99z: err %v, stdout %q; want an error naming the IDs and no CSV", err, out.String())
	}

	out.Reset()
	if err := cmdFig(ctx, []string{"-scale", "0.002", "11"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "# experiment 11: ") ||
		!strings.Contains(out.String(), "\n# Fig. 11a evaluation patterns") {
		t.Errorf("fig 11 output:\n%s", out.String())
	}

	out.Reset()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	err = cmdFig(cancelled, []string{"-scale", "0.002", "12a"}, &out, io.Discard)
	if !engine.Interrupted(err) || !strings.HasSuffix(out.String(), "rows above are PARTIAL\n") {
		t.Errorf("cancelled fig 12a: err %v, stdout:\n%s", err, out.String())
	}
}
