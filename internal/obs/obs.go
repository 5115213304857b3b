// Package obs is the unified observability substrate for the morphing
// pipeline and the four engine models: a metrics registry of atomic
// words, written once per run after workers join (so never on an engine
// hot path), structured query-lifecycle events (the JSONL query
// log and each run's flight recorder), an HTTP debug endpoint
// (expvar-style JSON, Prometheus text exposition, net/http/pprof), and a
// progress reporter for long enumeration runs.
//
// Every layer emits into an *Observer. A nil Observer, Registry, EventLog
// or metric is valid and inert, so instrumentation call sites are
// unconditional — there is no "is observability on?" branching in engine
// code. The process-wide Default observer always carries a live registry;
// the query log is off until one is installed (SetDefaultEventLog).
//
// A run's timeline is its lifecycle events (admitted, transformed,
// trie_decision, completed, …) plus the stage durations of the RunStats
// it returns; see DESIGN.md §6.
package obs

// Observer bundles the observability sinks a component emits into. Any
// field may be nil: a nil Metrics drops measurements, a nil Events drops
// lifecycle events. The zero value observes nothing.
type Observer struct {
	// Metrics receives counters, gauges and histograms.
	Metrics *Registry
	// Events receives structured query-lifecycle events (the JSONL
	// query log).
	Events *EventLog
}

// defaultObserver is the process-wide sink components fall back to when
// they were not handed an explicit Observer. Its registry is always live
// (counters are cheap); its event log is nil until SetDefaultEventLog.
var defaultObserver = &Observer{Metrics: NewRegistry()}

// Default returns the process-wide observer.
func Default() *Observer { return defaultObserver }

// DefaultRegistry returns the process-wide metrics registry.
func DefaultRegistry() *Registry { return defaultObserver.Metrics }

// SetDefaultEventLog installs l as the process-wide query log (the
// -querylog flag). Call it from main before any runs start; it is not
// synchronized against concurrent emits.
func SetDefaultEventLog(l *EventLog) { defaultObserver.Events = l }

// Or returns o when non-nil and the process-wide default otherwise. It is
// how engines and the runner resolve their optional Obs field.
func Or(o *Observer) *Observer {
	if o != nil {
		return o
	}
	return defaultObserver
}

// Counter returns the named counter from the observer's registry (nil
// when the observer or its registry is nil).
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name)
}

// Gauge returns the named gauge from the observer's registry.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name)
}

// Histogram returns the named histogram from the observer's registry.
func (o *Observer) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name)
}
