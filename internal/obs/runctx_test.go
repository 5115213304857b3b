package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// bundleFiles lists a flight bundle's file names, sorted.
func bundleFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// readMeta decodes a flight bundle's meta.json.
func readMeta(t *testing.T, dir string) map[string]any {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	return meta
}

func TestEventLogJSONL(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	l.Event("r1", "admitted", Str("engine", "Peregrine"), Int("queries", 3))
	l.Event("r1", "completed", Int("matches", 42))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("querylog lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("querylog line not JSON: %q: %v", line, err)
		}
		if m["run"] != "r1" {
			t.Fatalf("querylog line missing run: %q", line)
		}
	}
	if !strings.Contains(lines[0], `"engine":"Peregrine"`) {
		t.Fatalf("attrs not flattened into the JSON line: %q", lines[0])
	}

	// Nil event logs are inert.
	var nl *EventLog
	nl.Event("r", "x")
	nl.Emit(Event{})
	if err := nl.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFlightRecorderDumpsOnAnomaly(t *testing.T) {
	dir := t.TempDir()
	parent := &Observer{Metrics: NewRegistry()}

	rc := StartRun(parent, "count", FlightPolicy{Dir: dir})
	rc.Event("admitted", Int("queries", 2))
	dump := rc.Finish(RunOutcome{ErrKind: "deadline", Err: "context deadline exceeded"})
	if dump == "" {
		t.Fatal("deadline ending produced no flight dump")
	}
	if !strings.HasSuffix(dump, rc.ID()+"-deadline") {
		t.Fatalf("dump dir %q not named <run>-<reason>", dump)
	}

	// The bundle is the run's events and its metadata, nothing else: the
	// events are the run's one timeline.
	if got := bundleFiles(t, dump); !slices.Equal(got, []string{"events.jsonl", "meta.json"}) {
		t.Fatalf("bundle holds %v, want [events.jsonl meta.json]", got)
	}

	evRaw, err := os.ReadFile(filepath.Join(dump, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	if err := json.Unmarshal([]byte(strings.SplitN(strings.TrimSpace(string(evRaw)), "\n", 2)[0]), &ev); err != nil {
		t.Fatalf("events.jsonl line invalid: %v", err)
	}
	if ev.Run != rc.ID() || ev.Name != "admitted" {
		t.Fatalf("dumped event = %+v", ev)
	}

	meta := readMeta(t, dump)
	if meta["reason"] != "deadline" || meta["run"] != rc.ID() || meta["err"] != "context deadline exceeded" {
		t.Fatalf("meta.json = %v", meta)
	}
	if _, ok := meta["spans_dropped"]; ok {
		t.Fatalf("meta.json still reports spans: %v", meta)
	}

	// Finish is idempotent: a second call returns the same bundle.
	if again := rc.Finish(RunOutcome{ErrKind: "panic"}); again != dump {
		t.Fatalf("second Finish = %q, want %q", again, dump)
	}
}

func TestFlightRecorderClassification(t *testing.T) {
	dir := t.TempDir()
	finish := func(policy FlightPolicy, out RunOutcome, delay time.Duration) string {
		policy.Dir = dir
		rc := StartRun(nil, "t", policy)
		if delay > 0 {
			rc.start = rc.start.Add(-delay) // backdate instead of sleeping
		}
		return rc.Finish(out)
	}

	if d := finish(FlightPolicy{}, RunOutcome{}, 0); d != "" {
		t.Fatalf("normal run dumped: %s", d)
	}
	if d := finish(FlightPolicy{SlowQuery: time.Hour}, RunOutcome{}, 0); d != "" {
		t.Fatalf("fast run dumped as slow: %s", d)
	}
	if d := finish(FlightPolicy{SlowQuery: time.Millisecond}, RunOutcome{}, time.Second); !strings.HasSuffix(d, "-slow") {
		t.Fatalf("slow run not dumped: %q", d)
	}
	if d := finish(FlightPolicy{}, RunOutcome{Calibration: 10}, 0); d != "" {
		t.Fatalf("a calibration ratio alone dumped: %s", d)
	}
	if d := finish(FlightPolicy{}, RunOutcome{ErrKind: "canceled"}, 0); !strings.HasSuffix(d, "-canceled") {
		t.Fatalf("canceled run not dumped: %q", d)
	}
}

func TestFlightRecorderDumpCap(t *testing.T) {
	dir := t.TempDir()
	// Existing entries count against the cap: leave room for two bundles.
	for i := 0; i < maxDumps-2; i++ {
		if err := os.Mkdir(filepath.Join(dir, fmt.Sprintf("old%d", i)), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	policy := FlightPolicy{Dir: dir}
	var ql bytes.Buffer
	parent := &Observer{Metrics: NewRegistry(), Events: NewEventLog(&ql)}
	var dumps int
	for i := 0; i < 4; i++ {
		rc := StartRun(parent, "t", policy)
		if rc.Finish(RunOutcome{ErrKind: "error", Err: "boom"}) != "" {
			dumps++
		}
	}
	if dumps != 2 {
		t.Fatalf("dumps = %d, want capped at 2 below the %d-bundle cap", dumps, maxDumps)
	}
	if !strings.Contains(ql.String(), "flight_dump_failed") {
		t.Fatal("capped dump left no breadcrumb in the query log")
	}
}

// TestRunContextEventRing checks the flight recorder's bound: a run
// keeps its newest ringCap events, oldest first, and its dump counts the
// overwritten ones.
func TestRunContextEventRing(t *testing.T) {
	rc := StartRun(nil, "t", FlightPolicy{Dir: t.TempDir()})
	for i := 0; i < ringCap+2; i++ {
		rc.Event(fmt.Sprintf("e%d", i))
	}
	evs := rc.Events()
	if len(evs) != ringCap {
		t.Fatalf("retained %d events, want %d", len(evs), ringCap)
	}
	if evs[0].Name != "e2" || evs[ringCap-1].Name != fmt.Sprintf("e%d", ringCap+1) {
		t.Fatalf("event ring order wrong: first %s, last %s", evs[0].Name, evs[ringCap-1].Name)
	}
	dump := rc.Finish(RunOutcome{ErrKind: "error"})
	if dump == "" {
		t.Fatal("anomalous run produced no dump")
	}
	if got := readMeta(t, dump)["events_dropped"]; got != float64(2) {
		t.Fatalf("meta.json events_dropped = %v, want 2", got)
	}
	raw, err := os.ReadFile(filepath.Join(dump, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), "\n"); n != ringCap {
		t.Fatalf("events.jsonl holds %d lines, want %d", n, ringCap)
	}
}

func TestFromContextPrecedence(t *testing.T) {
	fallback := &Observer{Metrics: NewRegistry()}
	if FromContext(context.Background(), fallback) != fallback {
		t.Fatal("bare context did not fall back to the explicit observer")
	}
	rc := StartRun(nil, "t", FlightPolicy{})
	ctx := ContextWithRun(context.Background(), rc)
	if FromContext(ctx, fallback) != rc.Observer() {
		t.Fatal("run scope on the context did not win over the fallback")
	}
	if RunFrom(ctx) != rc {
		t.Fatal("RunFrom lost the run context")
	}
	if RunFrom(context.Background()) != nil || RunFrom(nil) != nil {
		t.Fatal("RunFrom invented a run context")
	}

	// Nil run contexts are inert end to end.
	var nrc *RunContext
	if nrc.ID() != "" || nrc.Observer() != nil || nrc.Finish(RunOutcome{}) != "" {
		t.Fatal("nil RunContext not inert")
	}
	nrc.Event("x")
	if ContextWithRun(context.Background(), nil) != context.Background() {
		t.Fatal("attaching a nil run must be a no-op")
	}
}
