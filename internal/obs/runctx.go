package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// FlightPolicy configures the per-run flight recorder: where and when an
// anomalous ending dumps the run's recent history to disk. The zero value
// records (bounded by ringCap) but never dumps.
type FlightPolicy struct {
	// Dir is where anomaly dump bundles land; empty disables dumping
	// (the in-memory ring still records).
	Dir string
	// SlowQuery marks a run anomalous when its wall time exceeds this
	// threshold; zero disables the check.
	SlowQuery time.Duration
	// History, when set, adds a history.json file to every anomaly dump
	// holding the newest historySamples points of each time series — the
	// minutes of process context *around* the anomaly, not just the
	// anomalous run's own trace.
	History *History
}

// ringCap bounds each run's retained spans and events, maxDumps the
// bundles that may accumulate under FlightPolicy.Dir (existing entries
// count), and historySamples the points per series a dump embeds.
const (
	ringCap        = 256
	maxDumps       = 16
	historySamples = 120
)

// EnvFlightDir is the environment variable consulted by
// DefaultFlightPolicy for the dump directory, so test jobs (CI) can
// capture anomaly bundles without plumbing flags through every harness.
const EnvFlightDir = "MORPH_FLIGHT_DIR"

// DefaultFlightPolicy returns the zero policy with Dir taken from the
// MORPH_FLIGHT_DIR environment variable when set.
func DefaultFlightPolicy() FlightPolicy {
	return FlightPolicy{Dir: os.Getenv(EnvFlightDir)}
}

// RunOutcome describes how a run ended, for anomaly classification.
// The caller (core.Runner) classifies its own error domain; obs only
// needs the kind.
type RunOutcome struct {
	// ErrKind is "" for success, else one of "canceled", "deadline",
	// "panic", or "error". Any non-empty kind is anomalous.
	ErrKind string
	// Err is the error message, recorded in the dump metadata.
	Err string
	// Calibration is the cost-model calibration ratio (predicted/measured,
	// add-one smoothed) recorded in the dump metadata; 0 means unknown.
	Calibration float64
}

// RunContext scopes one query execution: a unique run ID, a bounded ring
// tracer mirroring into the process tracer, and a bounded ring of
// lifecycle events. Metrics are not scoped: the run writes into its
// parent's registry, and its own numbers are the RunStats the pipeline
// returns. It travels through the pipeline via context.Context
// (ContextWithRun / FromContext), so engines resolve the run's observer
// without any signature changes.
type RunContext struct {
	id     string
	label  string
	start  time.Time
	obs    *Observer
	policy FlightPolicy

	mu        sync.Mutex
	events    []Event
	evStart   int
	evDropped int64
	finished  bool
	dump      string
}

// runSeq numbers runs within the process; runEpoch distinguishes
// processes so concatenated query logs from restarts stay unambiguous.
var (
	runSeq       atomic.Uint64
	runEpochOnce sync.Once
	runEpoch     string
)

func newRunID() string {
	runEpochOnce.Do(func() {
		runEpoch = fmt.Sprintf("%06x", (uint64(time.Now().UnixNano())^uint64(os.Getpid())<<32)&0xffffff)
	})
	return fmt.Sprintf("r%s-%04d", runEpoch, runSeq.Add(1))
}

// StartRun opens a run scope under parent (nil means the process-wide
// default observer). The returned context's Observer has the parent's
// registry and event log, and a ring tracer tagged with the run ID and
// mirrored into the parent tracer.
func StartRun(parent *Observer, label string, policy FlightPolicy) *RunContext {
	parent = Or(parent)
	rc := &RunContext{
		id:     newRunID(),
		label:  label,
		start:  time.Now(),
		policy: policy,
	}
	rc.obs = &Observer{
		Metrics: parent.Metrics,
		Tracer:  NewRingTracer(ringCap, parent.Tracer, Str("run", rc.id)),
		Events:  parent.Events,
	}
	return rc
}

// ID returns the unique run identifier.
func (rc *RunContext) ID() string {
	if rc == nil {
		return ""
	}
	return rc.id
}

// Label returns the caller-supplied run label (the app name).
func (rc *RunContext) Label() string {
	if rc == nil {
		return ""
	}
	return rc.label
}

// Observer returns the run-scoped observer: spans land in the run's ring
// (and the parent tracer), metrics in the parent's registry.
func (rc *RunContext) Observer() *Observer {
	if rc == nil {
		return nil
	}
	return rc.obs
}

// Event records one lifecycle event: appended to the run's bounded
// ring, written to the query log, and marked as an instant in the trace
// (so dumps interleave events with spans).
func (rc *RunContext) Event(name string, attrs ...Attr) Event {
	if rc == nil {
		return Event{}
	}
	e := NewEvent(rc.id, name, attrs...)
	if rc.label != "" && e.Attrs["label"] == nil {
		if e.Attrs == nil {
			e.Attrs = map[string]any{}
		}
		e.Attrs["label"] = rc.label
	}
	rc.obs.Events.Emit(e)
	rc.obs.Tracer.Instant(name, attrs...)
	rc.mu.Lock()
	if len(rc.events) >= ringCap {
		rc.events[rc.evStart] = e
		rc.evStart = (rc.evStart + 1) % ringCap
		rc.evDropped++
	} else {
		rc.events = append(rc.events, e)
	}
	rc.mu.Unlock()
	return e
}

// Events returns the retained lifecycle events, oldest first.
func (rc *RunContext) Events() []Event {
	if rc == nil {
		return nil
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := make([]Event, len(rc.events))
	for i := range rc.events {
		out[i] = rc.events[(rc.evStart+i)%len(rc.events)]
	}
	return out
}

// Wall returns the elapsed wall time since the run started.
func (rc *RunContext) Wall() time.Duration {
	if rc == nil {
		return 0
	}
	return time.Since(rc.start)
}

// Finish classifies the run's ending against the flight policy and, when
// anomalous, dumps the flight-recorder contents as a bundle under
// policy.Dir: trace.json (Chrome trace_event), events.jsonl, and
// meta.json. It returns the bundle directory, or "" when the run was
// normal, dumping is disabled, or the dump cap is reached. Idempotent:
// only the first call classifies and dumps.
func (rc *RunContext) Finish(out RunOutcome) string {
	if rc == nil {
		return ""
	}
	rc.mu.Lock()
	if rc.finished {
		dump := rc.dump
		rc.mu.Unlock()
		return dump
	}
	rc.finished = true
	rc.mu.Unlock()

	wall := time.Since(rc.start)
	reason := rc.classify(out, wall)
	if reason == "" || rc.policy.Dir == "" {
		return ""
	}
	dir, err := rc.writeDump(reason, out, wall)
	if err != nil {
		// Dumping is best-effort diagnostics: never fail the run for it,
		// but leave a breadcrumb in the query log.
		rc.obs.Events.Emit(NewEvent(rc.id, "flight_dump_failed", Str("error", err.Error())))
		return ""
	}
	rc.mu.Lock()
	rc.dump = dir
	rc.mu.Unlock()
	return dir
}

// classify maps an outcome to a dump reason ("" = normal).
func (rc *RunContext) classify(out RunOutcome, wall time.Duration) string {
	if out.ErrKind != "" {
		return out.ErrKind
	}
	if rc.policy.SlowQuery > 0 && wall > rc.policy.SlowQuery {
		return "slow"
	}
	return ""
}

func (rc *RunContext) writeDump(reason string, out RunOutcome, wall time.Duration) (string, error) {
	if err := os.MkdirAll(rc.policy.Dir, 0o755); err != nil {
		return "", err
	}
	entries, err := os.ReadDir(rc.policy.Dir)
	if err != nil {
		return "", err
	}
	if len(entries) >= maxDumps {
		return "", fmt.Errorf("flight dir %s at capacity (%d bundles)", rc.policy.Dir, maxDumps)
	}
	dir := filepath.Join(rc.policy.Dir, rc.id+"-"+reason)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}

	tf, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return "", err
	}
	if err := rc.obs.Tracer.WriteChromeTrace(tf); err != nil {
		tf.Close()
		return "", err
	}
	if err := tf.Close(); err != nil {
		return "", err
	}

	ef, err := os.Create(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(ef)
	for _, e := range rc.Events() {
		if err := enc.Encode(e); err != nil {
			ef.Close()
			return "", err
		}
	}
	if err := ef.Close(); err != nil {
		return "", err
	}

	if rc.policy.History != nil {
		hf, err := os.Create(filepath.Join(dir, "history.json"))
		if err != nil {
			return "", err
		}
		he := json.NewEncoder(hf)
		he.SetIndent("", "  ")
		if err := he.Encode(rc.policy.History.Snapshot(historySamples)); err != nil {
			hf.Close()
			return "", err
		}
		if err := hf.Close(); err != nil {
			return "", err
		}
	}

	rc.mu.Lock()
	evDropped := rc.evDropped
	rc.mu.Unlock()
	meta := map[string]any{
		"run":            rc.id,
		"label":          rc.label,
		"reason":         reason,
		"start":          rc.start,
		"wall_ns":        wall.Nanoseconds(),
		"err_kind":       out.ErrKind,
		"err":            out.Err,
		"calibration":    out.Calibration,
		"spans_dropped":  rc.obs.Tracer.Dropped(),
		"events_dropped": evDropped,
	}
	mf, err := os.Create(filepath.Join(dir, "meta.json"))
	if err != nil {
		return "", err
	}
	me := json.NewEncoder(mf)
	me.SetIndent("", "  ")
	if err := me.Encode(meta); err != nil {
		mf.Close()
		return "", err
	}
	return dir, mf.Close()
}

// runCtxKey keys the RunContext in a context.Context.
type runCtxKey struct{}

// ContextWithRun attaches the run scope to ctx.
func ContextWithRun(ctx context.Context, rc *RunContext) context.Context {
	if rc == nil {
		return ctx
	}
	return context.WithValue(ctx, runCtxKey{}, rc)
}

// RunFrom returns the run scope carried by ctx, or nil.
func RunFrom(ctx context.Context) *RunContext {
	if ctx == nil {
		return nil
	}
	rc, _ := ctx.Value(runCtxKey{}).(*RunContext)
	return rc
}

// FromContext resolves the observer a component should emit into: the
// run scope carried by ctx when present, else Or(fallback). Engines call
// this at execution entry so every span lands in the current run's
// flight recorder without signature changes.
func FromContext(ctx context.Context, fallback *Observer) *Observer {
	if rc := RunFrom(ctx); rc != nil {
		return rc.obs
	}
	return Or(fallback)
}
