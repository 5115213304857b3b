package obs

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// promMetric is one metric family reconstructed from the exposition text
// by the hand-rolled parser below.
type promMetric struct {
	help    string
	typ     string
	value   float64      // counter / gauge sample
	buckets []promBucket // histogram only, in emission order
	sum     float64
	count   float64
}

type promBucket struct {
	le  string
	cum float64
}

// parsePrometheus is a strict reader of the subset of the Prometheus text
// exposition format WritePrometheus emits. It fails the test on any line
// it cannot attribute, so format drift is caught rather than skipped.
func parsePrometheus(t *testing.T, text string) map[string]*promMetric {
	t.Helper()
	metrics := map[string]*promMetric{}
	get := func(name string) *promMetric {
		if metrics[name] == nil {
			metrics[name] = &promMetric{}
		}
		return metrics[name]
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("malformed HELP line: %q", line)
			}
			get(name).help = help
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			get(name).typ = typ
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unknown comment line: %q", line)
		default:
			series, valStr, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("malformed sample line: %q", line)
			}
			val, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("sample %q has non-numeric value: %v", line, err)
			}
			name, labels, _ := strings.Cut(series, "{")
			switch {
			case strings.HasSuffix(name, "_bucket"):
				base := strings.TrimSuffix(name, "_bucket")
				le := strings.TrimSuffix(strings.TrimPrefix(labels, `le="`), `"}`)
				get(base).buckets = append(get(base).buckets, promBucket{le: le, cum: val})
			case strings.HasSuffix(name, "_sum"):
				get(strings.TrimSuffix(name, "_sum")).sum = val
			case strings.HasSuffix(name, "_count"):
				get(strings.TrimSuffix(name, "_count")).count = val
			default:
				get(name).value = val
			}
		}
	}
	return metrics
}

// TestPrometheusExpositionRoundTrip renders a populated registry and
// re-parses the text, asserting the spec-level properties a real scraper
// relies on: a TYPE line per family, after the published metrics' HELP
// line, histogram buckets that are cumulative and end in +Inf = count, and
// sample values that agree with the registry snapshot.
func TestPrometheusExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine_matches_total").Add(42)
	r.Gauge("server_queue_depth").Set(1.5)
	r.Counter("server_reject_queue_full_total").Inc()
	r.Counter("unpublished_total").Inc()
	h := r.Histogram("server_phase_mine_ns")
	for _, v := range []uint64{1, 2, 3, 100, 100, 5000} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	metrics := parsePrometheus(t, buf.String())

	for name, want := range map[string]struct{ typ, help string }{
		"engine_matches_total":           {"counter", "matches delivered, streamed per block"},
		"server_queue_depth":             {"gauge", "queued queries"},
		"server_phase_mine_ns":           {"histogram", "mining latency in nanoseconds"},
		"server_reject_queue_full_total": {"counter", "typed rejections with code queue_full"},
		"unpublished_total":              {"counter", ""},
	} {
		m := metrics[name]
		if m == nil {
			t.Fatalf("metric %s missing from exposition:\n%s", name, buf.String())
		}
		if m.typ != want.typ || m.help != want.help {
			t.Fatalf("%s: TYPE %q HELP %q, want %q %q", name, m.typ, m.help, want.typ, want.help)
		}
	}

	if metrics["engine_matches_total"].value != 42 {
		t.Fatalf("counter sample = %v, want 42", metrics["engine_matches_total"].value)
	}
	if metrics["server_queue_depth"].value != 1.5 {
		t.Fatalf("gauge sample = %v, want 1.5", metrics["server_queue_depth"].value)
	}

	hist := metrics["server_phase_mine_ns"]
	if len(hist.buckets) < 2 {
		t.Fatalf("histogram has %d buckets, want at least a finite one and +Inf", len(hist.buckets))
	}
	prev := -1.0
	for _, b := range hist.buckets {
		if b.cum < prev {
			t.Fatalf("buckets not cumulative: le=%s has %v after %v", b.le, b.cum, prev)
		}
		prev = b.cum
	}
	last := hist.buckets[len(hist.buckets)-1]
	if last.le != "+Inf" {
		t.Fatalf("last bucket le = %q, want +Inf", last.le)
	}
	if last.cum != hist.count || hist.count != 6 {
		t.Fatalf("+Inf bucket %v != count %v (want 6)", last.cum, hist.count)
	}
	if hist.sum != 1+2+3+100+100+5000 {
		t.Fatalf("histogram sum = %v", hist.sum)
	}
	// Finite bucket bounds must be ordered numerically.
	prevBound := -1.0
	for _, b := range hist.buckets[:len(hist.buckets)-1] {
		bound, err := strconv.ParseFloat(b.le, 64)
		if err != nil {
			t.Fatalf("finite bucket bound %q not numeric: %v", b.le, err)
		}
		if bound <= prevBound {
			t.Fatalf("bucket bounds not increasing: %v after %v", bound, prevBound)
		}
		prevBound = bound
	}
}

// TestHelpTextsNeedNoEscaping: the exposition prints help texts verbatim,
// which is right only while none holds a backslash or a line break.
func TestHelpTextsNeedNoEscaping(t *testing.T) {
	for name, h := range metricHelp {
		if h == "" || strings.ContainsAny(h, "\\\n") {
			t.Errorf("%s: help text %q is empty or needs escaping", name, h)
		}
	}
}
