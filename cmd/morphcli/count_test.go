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
	"morphing/internal/report"
)

// TestCountStatsJSON pins `count -stats json` to the one run-report schema:
// a completed run carries each query's count (the text mode's numbers) and
// the mined winner set, a run past its deadline the interruption, and
// `count -report` writes the same document.
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
	reportPath := filepath.Join(t.TempDir(), "run.json")
	args := append(append([]string{}, base...), "-stats", "json", "-report", reportPath)
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
	file, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if fileRep := decode(t, file); len(fileRep.Queries) != len(queries) || fileRep.Queries[0].Count == nil {
		t.Errorf("-report file lost the queries' counts: %+v", fileRep.Queries)
	}

	js.Reset()
	args = append(append([]string{}, base...), "-stats", "json", "-timeout", "1ns")
	err = cmdCount(ctx, append(args, queries...), &js, io.Discard)
	if !errors.Is(err, engine.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline", err)
	}
	if rep := decode(t, js.Bytes()); !rep.Interrupted || rep.Phase == "" {
		t.Errorf("timed-out run: interrupted %v, phase %q", rep.Interrupted, rep.Phase)
	}
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
