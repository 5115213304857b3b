package main

import (
	"io"
	"os"
	"testing"

	"morphing/internal/obs"
)

// TestFlightDirStaysWithItsRun: -flightdir sets the dump directory of its
// own run only. A run with the flag dumps its anomalous (slow) run there and
// leaves MORPH_FLIGHT_DIR as it was; a following run in the same process
// without the flag dumps nothing there.
func TestFlightDirStaysWithItsRun(t *testing.T) {
	t.Setenv(obs.EnvFlightDir, "")
	os.Unsetenv(obs.EnvFlightDir)
	dir := t.TempDir()
	count := []string{"-slowquery", "1ns", "count", "-graph", "MI", "-scale", "0.002", "-threads", "1", "triangle"}
	if code := run(append([]string{"-flightdir", dir}, count...), io.Discard, io.Discard); code != 0 {
		t.Fatalf("run with -flightdir: exit status %d", code)
	}
	dumps, err := os.ReadDir(dir)
	if err != nil || len(dumps) == 0 {
		t.Fatalf("the flagged slow run dumped %d bundles (%v), want some", len(dumps), err)
	}
	if v, ok := os.LookupEnv(obs.EnvFlightDir); ok {
		t.Fatalf("-flightdir set %s=%q in the process environment", obs.EnvFlightDir, v)
	}
	if code := run(count, io.Discard, io.Discard); code != 0 {
		t.Fatalf("run without -flightdir: exit status %d", code)
	}
	if after, err := os.ReadDir(dir); err != nil || len(after) != len(dumps) {
		t.Fatalf("a run without -flightdir left %d bundles where the flagged run left %d (%v)", len(after), len(dumps), err)
	}
}
