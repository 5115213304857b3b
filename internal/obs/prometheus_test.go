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
// relies on: a HELP and TYPE line per family, histogram buckets that are
// cumulative and end in +Inf = count, and sample values that agree with
// the registry snapshot.
func TestPrometheusExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine_matches_total").Add(0, 42)
	r.SetHelp("engine_matches_total", "total pattern matches delivered")
	r.Gauge("run_last_cost").Set(1.5)
	h := r.Histogram("mine_ns")
	r.SetHelp("mine_ns", `per-pattern mine time with a \ backslash
and a newline`)
	for _, v := range []uint64{1, 2, 3, 100, 100, 5000} {
		h.Observe(0, v)
	}

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	metrics := parsePrometheus(t, buf.String())

	for name, wantType := range map[string]string{
		"engine_matches_total": "counter",
		"run_last_cost":        "gauge",
		"mine_ns":              "histogram",
	} {
		m := metrics[name]
		if m == nil {
			t.Fatalf("metric %s missing from exposition:\n%s", name, buf.String())
		}
		if m.typ != wantType {
			t.Fatalf("%s TYPE = %q, want %q", name, m.typ, wantType)
		}
		if m.help == "" {
			t.Fatalf("%s has no HELP line", name)
		}
	}
	if metrics["engine_matches_total"].help != "total pattern matches delivered" {
		t.Fatalf("help text mangled: %q", metrics["engine_matches_total"].help)
	}
	// Escaping per the exposition spec: backslash doubled, newline as \n.
	if want := `per-pattern mine time with a \\ backslash\nand a newline`; metrics["mine_ns"].help != want {
		t.Fatalf("escaped help = %q, want %q", metrics["mine_ns"].help, want)
	}
	// Unregistered help falls back to a nonempty default.
	if metrics["run_last_cost"].help == "" {
		t.Fatal("default HELP text missing")
	}

	if metrics["engine_matches_total"].value != 42 {
		t.Fatalf("counter sample = %v, want 42", metrics["engine_matches_total"].value)
	}
	if metrics["run_last_cost"].value != 1.5 {
		t.Fatalf("gauge sample = %v, want 1.5", metrics["run_last_cost"].value)
	}

	hist := metrics["mine_ns"]
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
