package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"morphing/internal/engine"
	"morphing/internal/obs"
	"morphing/internal/report"
)

// TestCountStatsJSON pins `count -stats json` to the one run-report schema:
// a completed run carries each query's count (the text mode's numbers) and
// the mined winner set, a run past its deadline the interruption, and
// `explain -json` writes the same document in explain mode. A run past its
// deadline in text mode prints its partial counts under the PARTIAL
// heading.
func TestCountStatsJSON(t *testing.T) {
	ctx := context.Background()
	base := []string{"-graph", "MI", "-scale", "0.003", "-threads", "1"}
	queries := []string{"triangle", "4-cycle:v"}
	decode := func(t *testing.T, data []byte) report.RunReport {
		t.Helper()
		var rep report.RunReport
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("not a run report: %v\n%s", err, data)
		}
		if rep.Schema != report.Schema {
			t.Fatalf("schema %q, want %q", rep.Schema, report.Schema)
		}
		return rep
	}

	var text bytes.Buffer
	if err := cmdCount(ctx, append(append([]string{}, base...), queries...), &text, io.Discard); err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{}
	for _, line := range strings.Split(text.String(), "\n") {
		if f := strings.Fields(line); len(f) == 3 && strings.HasPrefix(f[2], "[") {
			n, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil {
				t.Fatalf("count line %q: %v", line, err)
			}
			want[f[0]] = n
		}
	}
	if len(want) != len(queries) {
		t.Fatalf("text mode printed %d query counts, want %d:\n%s", len(want), len(queries), text.String())
	}

	var js bytes.Buffer
	args := append(append([]string{}, base...), "-stats", "json")
	if err := cmdCount(ctx, append(args, queries...), &js, io.Discard); err != nil {
		t.Fatal(err)
	}
	rep := decode(t, js.Bytes())
	if rep.Interrupted || len(rep.Mined) == 0 || len(rep.Queries) != len(queries) {
		t.Fatalf("completed run: interrupted %v, mined %v, %d queries", rep.Interrupted, rep.Mined, len(rep.Queries))
	}
	for _, q := range rep.Queries {
		if q.Count == nil || *q.Count != want[q.Pattern] {
			t.Errorf("query %s: count %v, text mode %d", q.Pattern, q.Count, want[q.Pattern])
		}
	}
	if rep.Registry == nil || rep.Registry.Counters[engine.MetricMatches] == 0 {
		t.Error("report lacks the registry snapshot")
	}

	js.Reset()
	if err := cmdExplain(ctx, append(append(append([]string{}, base...), "-json"), queries...), &js, io.Discard); err != nil {
		t.Fatal(err)
	}
	ex := decode(t, js.Bytes())
	if len(ex.Mined) == 0 || len(ex.Queries) != len(queries) {
		t.Fatalf("explain -json: mined %v, %d queries", ex.Mined, len(ex.Queries))
	}
	for _, q := range ex.Queries {
		if q.Count == nil || *q.Count != want[q.Pattern] {
			t.Errorf("explain -json query %s: count %v, text mode %d", q.Pattern, q.Count, want[q.Pattern])
		}
	}
	if len(ex.Patterns) == 0 || ex.Patterns[0].CalibrationRatio == 0 {
		t.Errorf("explain -json lacks the calibration records: %+v", ex.Patterns)
	}
	if ex.Registry == nil || ex.Registry.Counters[engine.MetricMatches] == 0 {
		t.Error("explain -json lacks the registry snapshot")
	}

	js.Reset()
	args = append(append([]string{}, base...), "-stats", "json", "-timeout", "1ns")
	err := cmdCount(ctx, append(args, queries...), &js, io.Discard)
	if !errors.Is(err, engine.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline", err)
	}
	timedOut := decode(t, js.Bytes())
	if !timedOut.Interrupted || timedOut.Phase == "" {
		t.Errorf("timed-out run: interrupted %v, phase %q", timedOut.Interrupted, timedOut.Phase)
	}

	text.Reset()
	args = append(append([]string{}, base...), "-timeout", "1ns")
	if err := cmdCount(ctx, append(args, queries...), &text, io.Discard); !errors.Is(err, engine.ErrDeadlineExceeded) {
		t.Fatalf("text mode: err = %v, want the deadline", err)
	}
	out := text.String()
	if !strings.HasPrefix(out, "*** DEADLINE EXCEEDED — results below are PARTIAL") {
		t.Errorf("text mode lacks the PARTIAL heading:\n%s", out)
	}
	if rows := strings.Count(out, "[partial, mined alternative]"); rows != len(timedOut.Partial) || rows != len(timedOut.Mined) {
		t.Errorf("text mode printed %d partial rows, want one per mined pattern (%d mined, %d partial):\n%s",
			rows, len(timedOut.Mined), len(timedOut.Partial), out)
	}

	// A 1ns deadline stops the run before anything is mined. Cancelled once
	// its trie is decided, the run stops mining: one row per mined pattern.
	mineCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	obs.SetDefaultEventLog(obs.NewEventLog(cancelOn{"trie_decision", cancel}))
	defer obs.SetDefaultEventLog(nil)
	text.Reset()
	if err := cmdCount(mineCtx, append(append([]string{}, base...), queries...), &text, io.Discard); !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("cancelled in mining: err = %v, want ErrCanceled", err)
	}
	out = text.String()
	if !strings.HasPrefix(out, `*** CANCELED — results below are PARTIAL (stopped in phase "mine") ***`) {
		t.Errorf("cancelled in mining: wrong PARTIAL heading:\n%s", out)
	}
	if rows := strings.Count(out, "[partial, mined alternative]"); rows != len(rep.Mined) {
		t.Errorf("cancelled in mining: %d partial rows, want one per mined pattern (%d):\n%s", rows, len(rep.Mined), out)
	}
}

// cancelOn is a query-log writer that cancels the run when it logs the
// named lifecycle event.
type cancelOn struct {
	event  string
	cancel context.CancelFunc
}

func (c cancelOn) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(`"msg":"`+c.event+`"`)) {
		c.cancel()
	}
	return len(p), nil
}

// TestFailedRunKeepsProfile: a command that fails still returns through
// run, so the CPU profile of a run that hit its deadline is written out
// (a gzipped profile, not an empty file) and the query log is closed.
func TestFailedRunKeepsProfile(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.pb")
	args := []string{"-cpuprofile", prof, "-querylog", filepath.Join(dir, "q.jsonl"),
		"count", "-graph", "MG", "-scale", "0.003", "-timeout", "1ms", "p4:v", "p5:v"}
	if code := run(args, io.Discard, io.Discard); code != 1 {
		t.Fatalf("exit status %d, want 1", code)
	}
	data, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("CPU profile is not gzip data (%d bytes)", len(data))
	}
}
