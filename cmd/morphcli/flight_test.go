package main

import (
	"io"
	"os"
	"testing"

	"morphing/internal/obs"
)

// TestFlightDirStaysWithItsRun: bundles go to $MORPH_FLIGHT_DIR, and
// -slowquery marks its own run only. A run with the flag dumps its
// anomalous (slow) run there; a following run in the same process without
// the flag dumps nothing more.
func TestFlightDirStaysWithItsRun(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(obs.EnvFlightDir, dir)
	count := []string{"count", "-graph", "MI", "-scale", "0.002", "-threads", "1", "triangle"}
	if code := run(append([]string{"-slowquery", "1ns"}, count...), io.Discard, io.Discard); code != 0 {
		t.Fatalf("run with -slowquery: exit status %d", code)
	}
	dumps, err := os.ReadDir(dir)
	if err != nil || len(dumps) == 0 {
		t.Fatalf("the flagged slow run dumped %d bundles (%v), want some", len(dumps), err)
	}
	if code := run(count, io.Discard, io.Discard); code != 0 {
		t.Fatalf("run without -slowquery: exit status %d", code)
	}
	if after, err := os.ReadDir(dir); err != nil || len(after) != len(dumps) {
		t.Fatalf("a run without -slowquery left %d bundles where the flagged run left %d (%v)", len(after), len(dumps), err)
	}
}
