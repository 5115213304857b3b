package bench

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"morphing/internal/engine"
)

// tinyConfig keeps every experiment in CI territory.
func tinyConfig() Config {
	return Config{Scale: 0.0012, Threads: 2, Seed: 1, Quick: true, Samples: 6}
}

func TestRegistryWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, err := ByID("12a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("99z"); err == nil {
		t.Fatal("unknown id accepted")
	}
	if len(IDs()) != len(Registry()) {
		t.Fatal("IDs() inconsistent with Registry()")
	}
}

// TestEveryExperimentRuns executes each experiment at tiny scale: every
// figure must produce a header plus at least one data row, and the
// built-in morphed-vs-baseline correctness gates must hold.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	cfg := tinyConfig()
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(context.Background(), cfg, &buf); err != nil {
				t.Fatalf("experiment %s: %v", e.ID, err)
			}
			lines := nonEmptyLines(buf.String())
			if len(lines) < 2 {
				t.Fatalf("experiment %s produced no data rows:\n%s", e.ID, buf.String())
			}
		})
	}
}

func TestFig12SpeedupColumns(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig12Peregrine(context.Background(), tinyConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	lines := nonEmptyLines(buf.String())
	header := strings.Split(lines[0], ",")
	wantCols := 9
	if len(header) != wantCols {
		t.Fatalf("header has %d columns: %v", len(header), header)
	}
	for _, l := range lines[1:] {
		if got := len(strings.Split(l, ",")); got != wantCols {
			t.Fatalf("row %q has %d columns", l, got)
		}
	}
}

func TestGraphCacheReuses(t *testing.T) {
	cfg := tinyConfig()
	a, err := loadGraph(cfg, "MI")
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadGraph(cfg, "MI")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("graph cache did not reuse")
	}
	cfg.Seed = 99
	c, err := loadGraph(cfg, "MI")
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different seeds shared a cached graph")
	}
}

func TestGraphsForQuickTruncation(t *testing.T) {
	cfg := tinyConfig()
	if got := graphsFor(cfg, 2, "MI", "MG", "PR"); len(got) != 2 {
		t.Fatalf("quick truncation failed: %v", got)
	}
	cfg.Quick = false
	if got := graphsFor(cfg, 2, "MI", "MG", "PR"); len(got) != 3 {
		t.Fatalf("non-quick truncated: %v", got)
	}
}

func TestHelperMath(t *testing.T) {
	if ratio(4, 2) != 2 || ratio(1, 0) != 0 {
		t.Fatal("ratio wrong")
	}
	if pct(1, 4) != 25 || pct(1, 0) != 0 {
		t.Fatal("pct wrong")
	}
}

func nonEmptyLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}

// TestCancelledContextReachesEveryExperiment: the run context bounds every
// mining phase of every figure, so under an already-cancelled context each
// experiment that mines must stop with the typed interruption instead of
// running some phases to completion (`11` only prints its patterns and
// recipes).
func TestCancelledContextReachesEveryExperiment(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range Registry() {
		if e.ID == "11" {
			continue
		}
		if err := e.Run(ctx, tinyConfig(), io.Discard); !engine.Interrupted(err) {
			t.Errorf("experiment %s under a cancelled context returned %v, want a typed interruption", e.ID, err)
		}
	}
}
