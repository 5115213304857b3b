package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/faultinject"
	"morphing/internal/graph"
	"morphing/internal/obs"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// lifecycleGraph is small but match-rich: every lifecycle test needs at
// least a handful of matches, not a long run.
func lifecycleGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := dataset.ErdosRenyi(60, 8, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// lifecycleRunner builds a Runner with a private observability universe:
// its own registry, a query log captured in ql, and a flight recorder
// dumping into a temp dir.
func lifecycleRunner(t *testing.T, ql *bytes.Buffer) (*Runner, string) {
	t.Helper()
	dir := t.TempDir()
	return &Runner{
		Engine: peregrine.New(2),
		Label:  "test",
		Obs:    &obs.Observer{Metrics: obs.NewRegistry(), Events: obs.NewEventLog(ql)},
		Flight: &obs.FlightPolicy{Dir: dir},
	}, dir
}

func eventNames(evs []obs.Event) []string {
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.Name
	}
	return out
}

// TestRunLifecycleCompleted checks the full happy-path lifecycle: a
// completed run carries its identity and event stream in RunStats, every
// lifecycle event reaches the query log under the run's ID, and no
// flight dump is written.
func TestRunLifecycleCompleted(t *testing.T) {
	var ql bytes.Buffer
	r, dir := lifecycleRunner(t, &ql)
	g := lifecycleGraph(t)
	queries := []*pattern.Pattern{
		pattern.Triangle().AsVertexInduced(),
		pattern.FourCycle().AsVertexInduced(),
	}
	_, st, err := r.CountsCtx(context.Background(), g, queries)
	if err != nil {
		t.Fatal(err)
	}
	if st.RunID == "" || st.RunLabel != "test" {
		t.Fatalf("run identity not stamped: id=%q label=%q", st.RunID, st.RunLabel)
	}
	if st.FlightDump != "" {
		t.Fatalf("normal run wrote a flight dump: %s", st.FlightDump)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("flight dir not empty after a normal run: %v", entries)
	}

	names := eventNames(st.Events)
	for _, want := range []string{"admitted", "transformed", "trie_decision", "completed"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Fatalf("lifecycle missing %q event: %v", want, names)
		}
	}
	for _, e := range st.Events {
		if e.Run != st.RunID {
			t.Fatalf("event %s carries run %q, want %q", e.Name, e.Run, st.RunID)
		}
	}

	// Every lifecycle event also landed in the query log as a JSONL line
	// tagged with the run ID and label.
	lines := strings.Split(strings.TrimSpace(ql.String()), "\n")
	if len(lines) < len(st.Events) {
		t.Fatalf("query log has %d lines, want >= %d", len(lines), len(st.Events))
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("query log line not JSON: %q: %v", line, err)
		}
		if m["run"] != st.RunID {
			t.Fatalf("query log line for wrong run: %q", line)
		}
	}
	if !strings.Contains(ql.String(), `"label":"test"`) {
		t.Fatal("query log lines missing the run label")
	}
	if !strings.Contains(ql.String(), `"msg":"completed"`) {
		t.Fatalf("query log missing terminal event:\n%s", ql.String())
	}

	// The run's metric deltas forwarded into the runner's registry.
	if got := r.Obs.Metrics.Counter(MetricRuns).Value(); got != 1 {
		t.Fatalf("parent run_total = %d, want 1", got)
	}

	// A match stream (subgraph enumeration) runs the same lifecycle, in
	// order, and a morphed one reports the S-DAG it built.
	st = streamRun(t, r, g, streamQueries())
	want, next := []string{"admitted", "transformed", "trie_decision", "completed"}, 0
	for _, n := range eventNames(st.Events) {
		if next < len(want) && n == want[next] {
			next++
		}
	}
	if next != len(want) {
		t.Fatalf("enumeration lifecycle %v, want %v in order", eventNames(st.Events), want)
	}
	if nodes, ok := transformedEvent(t, st).Attrs["sdag_nodes"].(int); !ok || nodes < 1 {
		t.Fatalf("morphed enumeration: sdag_nodes = %v, want >= 1", transformedEvent(t, st).Attrs["sdag_nodes"])
	}
	if got := r.Obs.Metrics.Counter(MetricRuns).Value(); got != 2 {
		t.Fatalf("parent run_total = %d after the enumeration, want 2", got)
	}
}

// streamQueries are edge-induced, as a match stream's queries must be to
// morph.
func streamQueries() []*pattern.Pattern {
	return []*pattern.Pattern{pattern.TailedTriangle(), pattern.FourCycle()}
}

// streamRun runs queries through r.StreamCtx with sinks that only
// count, and fails unless the run completed and delivered a match.
func streamRun(t *testing.T, r *Runner, g graph.Adjacency, queries []*pattern.Pattern) *RunStats {
	t.Helper()
	var delivered atomic.Uint64
	st, err := r.StreamCtx(context.Background(), g, queries, func(targets []StreamTarget) engine.Sink {
		return engine.EachMatch(func(int, []uint32) { delivered.Add(1) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != PhaseDone || delivered.Load() == 0 {
		t.Fatalf("enumeration ended in phase %q after %d matches", st.Phase, delivered.Load())
	}
	return st
}

// transformedEvent returns the run's "transformed" event.
func transformedEvent(t *testing.T, st *RunStats) obs.Event {
	t.Helper()
	for _, e := range st.Events {
		if e.Name == "transformed" {
			return e
		}
	}
	t.Fatalf("no transformed event in %v", eventNames(st.Events))
	return obs.Event{}
}

// TestTransformedEventCarriesSDAGNodes checks the one transformation
// figure the run's events hold and RunStats does not spell out: a morphed
// run's "transformed" event reports how many S-DAG structures Algorithm 1
// built, and a baseline run, which builds no S-DAG, leaves it out — for
// counts and for match streams alike.
func TestTransformedEventCarriesSDAGNodes(t *testing.T) {
	g := lifecycleGraph(t)
	queries := []*pattern.Pattern{
		pattern.Triangle().AsVertexInduced(),
		pattern.FourCycle().AsVertexInduced(),
	}
	var ql bytes.Buffer
	r, _ := lifecycleRunner(t, &ql)
	_, st, err := r.CountsCtx(context.Background(), g, queries)
	if err != nil {
		t.Fatal(err)
	}
	want := st.Selection.SDAG.Materialized()
	if got := transformedEvent(t, st).Attrs["sdag_nodes"]; got != want || want < 1 {
		t.Fatalf("morphed run: sdag_nodes = %v, want %d (>= 1)", got, want)
	}

	r.DisableMorphing = true
	_, st, err = r.CountsCtx(context.Background(), g, queries)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := transformedEvent(t, st).Attrs["sdag_nodes"]; ok {
		t.Fatalf("baseline run reports sdag_nodes = %v", got)
	}

	r.DisableMorphing = false
	st = streamRun(t, r, g, streamQueries())
	want = st.Selection.SDAG.Materialized()
	if got := transformedEvent(t, st).Attrs["sdag_nodes"]; got != want || want < 1 {
		t.Fatalf("morphed enumeration: sdag_nodes = %v, want %d (>= 1)", got, want)
	}
	r.DisableMorphing = true
	st = streamRun(t, r, g, streamQueries())
	if got, ok := transformedEvent(t, st).Attrs["sdag_nodes"]; ok {
		t.Fatalf("baseline enumeration reports sdag_nodes = %v", got)
	}
}

// TestRunLifecycleInjectedPanic drives the deterministic mid-mine fault:
// the visitor panics at match 5, the runner returns *engine.PanicError
// with per-alternative partial counts, the terminal query-log event
// reports kind=panic with the partial counts, and the flight recorder
// dumps a bundle of the run's events and metadata.
func TestRunLifecycleInjectedPanic(t *testing.T) {
	disarm, err := faultinject.Arm(faultinject.Config{PanicAtMatch: 5, PanicMessage: "lifecycle boom"})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()

	var ql bytes.Buffer
	r, _ := lifecycleRunner(t, &ql)
	g := lifecycleGraph(t)
	queries := []*pattern.Pattern{
		pattern.Triangle().AsVertexInduced(),
		pattern.FourCycle().AsVertexInduced(),
	}
	_, st, err := r.CountsCtx(context.Background(), g, queries)
	if err == nil {
		t.Fatal("injected panic did not surface")
	}
	var pe *engine.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *engine.PanicError", err)
	}
	if st == nil || len(st.Partial) == 0 {
		t.Fatalf("interrupted run carries no partial counts: %+v", st)
	}
	if st.FlightDump == "" {
		t.Fatal("panic run produced no flight dump")
	}
	if !strings.HasSuffix(st.FlightDump, st.RunID+"-panic") {
		t.Fatalf("dump dir %q not named <run>-panic", st.FlightDump)
	}

	// The terminal event is "interrupted" with the panic kind and the
	// per-alternative partial counts.
	var terminal *obs.Event
	for i := range st.Events {
		if st.Events[i].Name == "interrupted" {
			terminal = &st.Events[i]
		}
	}
	if terminal == nil {
		t.Fatalf("no interrupted event in %v", eventNames(st.Events))
	}
	if terminal.Attrs["kind"] != "panic" {
		t.Fatalf("terminal kind = %v, want panic", terminal.Attrs["kind"])
	}
	partials := 0
	for k := range terminal.Attrs {
		if strings.HasPrefix(k, "partial/") {
			partials++
		}
	}
	if partials != len(st.Partial) {
		t.Fatalf("terminal event has %d partial/ attrs, want %d", partials, len(st.Partial))
	}

	// The bundle is the run's events and its metadata; the last event
	// dumped is the terminal one.
	entries, err := os.ReadDir(st.FlightDump)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	if !slices.Equal(files, []string{"events.jsonl", "meta.json"}) {
		t.Fatalf("bundle holds %v, want [events.jsonl meta.json]", files)
	}
	raw, err := os.ReadFile(filepath.Join(st.FlightDump, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var last obs.Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Name != "interrupted" {
		t.Fatalf("last dumped event = %q, want interrupted", last.Name)
	}
	var meta map[string]any
	metaRaw, err := os.ReadFile(filepath.Join(st.FlightDump, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		t.Fatal(err)
	}
	if _, ok := meta["spans_dropped"]; ok {
		t.Fatalf("dump meta still reports spans: %v", meta)
	}
	if meta["reason"] != "panic" || !strings.Contains(meta["err"].(string), "lifecycle boom") {
		t.Fatalf("dump meta = %v", meta)
	}
	if !strings.Contains(ql.String(), `"msg":"interrupted"`) {
		t.Fatal("query log missing the interrupted terminal event")
	}
	// Interrupted runs do not count as completed runs.
	if r.Obs.Metrics.Counter(MetricRuns).Value() != 0 {
		t.Fatal("interrupted run incremented run_total")
	}
	if r.Obs.Metrics.Counter(MetricInterrupted).Value() != 1 {
		t.Fatal("interrupted run did not increment run_interrupted_total")
	}
}

// TestRunLifecycleCanceledAndDeadline uses pre-dead contexts — the
// deterministic interruption — and checks each kind classifies and dumps
// under its own reason even though the pipeline never reached mining.
func TestRunLifecycleCanceledAndDeadline(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel2()

	for _, tc := range []struct {
		kind string
		ctx  context.Context
		want error
	}{
		{"canceled", canceled, engine.ErrCanceled},
		{"deadline", expired, engine.ErrDeadlineExceeded},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			var ql bytes.Buffer
			r, dir := lifecycleRunner(t, &ql)
			g := lifecycleGraph(t)
			_, _, err := r.CountsCtx(tc.ctx, g, []*pattern.Pattern{pattern.Triangle()})
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 || !strings.HasSuffix(entries[0].Name(), "-"+tc.kind) {
				t.Fatalf("flight dir = %v, want one <run>-%s bundle", entries, tc.kind)
			}
			if !strings.Contains(ql.String(), `"msg":"interrupted"`) ||
				!strings.Contains(ql.String(), `"kind":"`+tc.kind+`"`) {
				t.Fatalf("query log missing interrupted/%s terminal event:\n%s", tc.kind, ql.String())
			}
		})
	}
}

// TestRunnerConcurrentRunsDisjoint is the PR's concurrency acceptance
// criterion at the Runner level: two executions racing on one shared
// observer get fully disjoint run IDs, event streams and query-log
// attribution, while the shared registry's totals are the sum over runs.
// Run under -race in CI.
func TestRunnerConcurrentRunsDisjoint(t *testing.T) {
	var mu sync.Mutex
	var ql bytes.Buffer
	parent := &obs.Observer{Metrics: obs.NewRegistry(), Events: obs.NewEventLog(syncWriter{&mu, &ql})}
	g := lifecycleGraph(t)
	queries := []*pattern.Pattern{
		pattern.Triangle().AsVertexInduced(),
		pattern.FourCycle().AsVertexInduced(),
	}

	const runs = 4
	stats := make([]*RunStats, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &Runner{Engine: peregrine.New(2), Label: "conc", Obs: parent}
			_, st, err := r.CountsCtx(context.Background(), g, queries)
			if err != nil {
				t.Error(err)
				return
			}
			stats[i] = st
		}(i)
	}
	wg.Wait()

	ids := map[string]bool{}
	var matchSum uint64
	for i, st := range stats {
		if st == nil {
			t.Fatalf("run %d missing stats", i)
		}
		if ids[st.RunID] {
			t.Fatalf("run ID %s reused", st.RunID)
		}
		ids[st.RunID] = true
		for _, e := range st.Events {
			if e.Run != st.RunID {
				t.Fatalf("run %s retained an event of run %s", st.RunID, e.Run)
			}
		}
		matchSum += st.Mining.Matches
	}
	if got := parent.Metrics.Counter(MetricRuns).Value(); got != runs {
		t.Fatalf("shared run_total = %d, want %d", got, runs)
	}
	if got := parent.Metrics.Counter(engine.MetricMatches).Value(); got != matchSum {
		t.Fatalf("shared matches total = %d, want sum over runs %d", got, matchSum)
	}
	// Each run's query-log lines are attributed to exactly its ID.
	mu.Lock()
	logText := ql.String()
	mu.Unlock()
	for id := range ids {
		if !strings.Contains(logText, `"run":"`+id+`"`) {
			t.Fatalf("query log missing run %s", id)
		}
	}
}

// syncWriter serializes writes from concurrent runs' event logs; the
// EventLog locks per-log, but the test shares one buffer across asserts.
type syncWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
