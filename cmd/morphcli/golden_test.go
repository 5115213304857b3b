package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

// durations matches Go-formatted wall-clock values ("31.1ms", "4.19µs",
// "1m2s"); they are the only nondeterministic part of the explain text on
// a fixed-seed dataset and get normalized to DUR before comparison.
var durations = regexp.MustCompile(`([0-9]+h)?([0-9]+m)?[0-9]+(\.[0-9]+)?(ns|µs|ms|s)`)

// runIDs matches obs run identifiers ("r3f0a1c-0002"): unique per process
// and per execution, so they get normalized like durations.
var runIDs = regexp.MustCompile(`r[0-9a-f]{6}-[0-9]{4}`)

// TestExplainGolden pins the full `morphcli explain` text report on a
// fixed-seed synthetic dataset: the query rewrites, the Algorithm 1
// trace with accepted AND rejected candidate alternative sets and their
// modeled costs, the per-pattern calibration, and the per-level
// selectivity. Regenerate with `go test ./cmd/morphcli -run Golden -update`
// after intentional format or cost-model changes.
func TestExplainGolden(t *testing.T) {
	// MG at this scale is the smallest config where Algorithm 1 both
	// accepts and rejects morphs; -threads 1 keeps worker rows stable.
	args := []string{"-graph", "MG", "-scale", "0.003", "-threads", "1",
		"p4:v", "4-cycle:v", "4-star:v"}
	var buf bytes.Buffer
	if err := cmdExplain(context.Background(), args, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := runIDs.ReplaceAll(buf.Bytes(), []byte("RUNID"))
	got = durations.ReplaceAll(got, []byte("DUR"))

	golden := filepath.Join("testdata", "explain.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("explain output differs from %s (re-run with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}

	// The golden fixture must keep demonstrating the acceptance criteria:
	// rejected candidates shown with estimated costs next to the winner,
	// and the multi-pattern execution decision (explain mode always mines
	// per pattern, but reports what a plain run would have done).
	for _, marker := range []string{"[ACCEPTED]", "[rejected]", "replace cost",
		"measured matches", "per-level selectivity",
		"-- multi-pattern execution --", "patterns in one pass"} {
		if !bytes.Contains(got, []byte(marker)) {
			t.Errorf("explain output lost %q", marker)
		}
	}
}
