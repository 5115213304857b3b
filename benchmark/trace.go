package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program under test is not instrumented for this).
type span struct {
	name       string
	start, end time.Duration // offsets from the tracer's epoch
	parent     int           // index of the causing span, -1 for a root
	query      int           // spans of one query share this id
	lane       int           // Chrome trace row: the client or 0
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent, query int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, query: query})
	return len(t.spans) - 1
}

// end closes span id and returns how long it lasted.
func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end = time.Since(t.epoch)
	return s.end - s.start
}

// add records a span whose interval was measured elsewhere: by the
// program's own counters (a RunStats duration laid inside its parent) or
// by a client goroutine.
func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
}

// timed runs f under a span.
func (t *tracer) timed(name string, parent, query int, f func() error) (time.Duration, error) {
	id := t.begin(name, parent, query)
	err := f()
	return t.end(id), err
}

// unattributed is the share of the named root spans' time that no child
// span covers: self time of the roots over their total.
func (t *tracer) unattributed(root string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total, covered time.Duration
	for i, s := range t.spans {
		if s.parent == -1 && s.name == root {
			total += s.end - s.start
			for _, c := range t.spans[i+1:] {
				if c.parent == i {
					covered += c.end - c.start
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(total-covered) / float64(total)
}

// writeChrome writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]int{"span": i, "parent": s.parent, "query": s.query},
		}
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
