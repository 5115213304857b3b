package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const kernelsBaseline = `{"timestamp":"t","results":[
  {"name":"intersect","shape":"balanced 4096x4096","speedup":1.30},
  {"name":"intersect","shape":"skewed 128x131072","speedup":36.6},
  {"name":"difference","shape":"skewed 128x131072","speedup":18.4}
]}`

func TestRegressSelfComparisonPasses(t *testing.T) {
	base := writeBench(t, "base.json", kernelsBaseline)
	var out bytes.Buffer
	if err := cmdRegress([]string{"-baseline", base, "-fresh", base}, &out); err != nil {
		t.Fatalf("self-comparison regressed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "all 3 benchmarks within tolerance") {
		t.Fatalf("missing pass summary:\n%s", out.String())
	}
}

func TestRegressDetectsSpeedupDrop(t *testing.T) {
	base := writeBench(t, "base.json", kernelsBaseline)
	// intersect/skewed dropped 45%; the others are within the 10% default.
	fresh := writeBench(t, "fresh.json", `{"results":[
	  {"name":"intersect","shape":"balanced 4096x4096","speedup":1.25},
	  {"name":"intersect","shape":"skewed 128x131072","speedup":20.0},
	  {"name":"difference","shape":"skewed 128x131072","speedup":19.0}
	]}`)
	var out bytes.Buffer
	err := cmdRegress([]string{"-baseline", base, "-fresh", fresh}, &out)
	if err == nil {
		t.Fatalf("45%% speedup drop not flagged:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "1 of 3 benchmarks regressed") {
		t.Fatalf("error = %v, want exactly one regression", err)
	}
	if !strings.Contains(out.String(), "REGRESSED intersect / skewed 128x131072") {
		t.Fatalf("regressed row not reported:\n%s", out.String())
	}
	// A looser tolerance accepts the same drop.
	out.Reset()
	if err := cmdRegress([]string{"-baseline", base, "-fresh", fresh, "-tolerance", "0.5"}, &out); err != nil {
		t.Fatalf("50%% tolerance still regressed: %v", err)
	}
}

func TestRegressMissingBenchmarkIsRegression(t *testing.T) {
	base := writeBench(t, "base.json", kernelsBaseline)
	fresh := writeBench(t, "fresh.json", `{"results":[
	  {"name":"intersect","shape":"balanced 4096x4096","speedup":1.30},
	  {"name":"difference","shape":"skewed 128x131072","speedup":18.4},
	  {"name":"union","shape":"new thing","speedup":2.0}
	]}`)
	var out bytes.Buffer
	err := cmdRegress([]string{"-baseline", base, "-fresh", fresh}, &out)
	if err == nil {
		t.Fatal("dropped benchmark not flagged as regression")
	}
	if !strings.Contains(out.String(), "MISSING") || !strings.Contains(out.String(), "intersect / skewed 128x131072") {
		t.Fatalf("missing row not reported:\n%s", out.String())
	}
	// Benchmarks only in the fresh file are informational, not failures.
	if !strings.Contains(out.String(), "new       union / new thing") {
		t.Fatalf("new benchmark not reported:\n%s", out.String())
	}
}

func TestRegressRejectsBadInputs(t *testing.T) {
	base := writeBench(t, "base.json", kernelsBaseline)
	for _, tc := range []struct{ name, args string }{
		{"empty results", `{"results":[]}`},
		{"zero speedup", `{"results":[{"name":"a","speedup":0}]}`},
		{"duplicate key", `{"results":[{"name":"a","speedup":1},{"name":"a","speedup":2}]}`},
	} {
		bad := writeBench(t, "bad.json", tc.args)
		var out bytes.Buffer
		if err := cmdRegress([]string{"-baseline", base, "-fresh", bad}, &out); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	var out bytes.Buffer
	if err := cmdRegress([]string{"-baseline", base}, &out); err == nil {
		t.Error("missing -fresh accepted")
	}
	if err := cmdRegress([]string{"-baseline", base, "-fresh", base, "-tolerance", "1.5"}, &out); err == nil {
		t.Error("tolerance >= 1 accepted")
	}
}

func TestRegressPrintsMetaMismatch(t *testing.T) {
	base := writeBench(t, "base.json", `{"meta":{"go_version":"go1.24.0","goarch":"amd64","goos":"linux","gomaxprocs":8,"cpu_model":"Xeon"},
	  "results":[{"name":"a","speedup":1.0}]}`)
	fresh := writeBench(t, "fresh.json", `{"meta":{"go_version":"go1.24.0","goarch":"arm64","goos":"linux","gomaxprocs":4,"cpu_model":"Graviton"},
	  "results":[{"name":"a","speedup":1.0}]}`)
	var out bytes.Buffer
	if err := cmdRegress([]string{"-baseline", base, "-fresh", fresh}, &out); err != nil {
		t.Fatalf("matching speedups regressed: %v", err)
	}
	for _, want := range []string{
		`goarch differs: baseline "amd64", fresh "arm64"`,
		`cpu model differs: baseline "Xeon", fresh "Graviton"`,
		"gomaxprocs differs: baseline 8, fresh 4",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing mismatch note %q:\n%s", want, out.String())
		}
	}
	// Files without a meta block (older baselines, scale files) stay silent.
	old := writeBench(t, "old.json", `{"results":[{"name":"a","speedup":1.0}]}`)
	out.Reset()
	if err := cmdRegress([]string{"-baseline", old, "-fresh", fresh}, &out); err != nil {
		t.Fatalf("meta-less baseline regressed: %v", err)
	}
	if strings.Contains(out.String(), "differs") {
		t.Errorf("meta note printed without a baseline meta:\n%s", out.String())
	}
}

// TestRegressCommittedBaselines keeps the gate wired to the real files CI
// compares against: each committed BENCH_*.json must parse and pass a
// self-comparison.
func TestRegressCommittedBaselines(t *testing.T) {
	for _, name := range []string{"BENCH_kernels.json", "BENCH_scale.json"} {
		path := filepath.Join("..", "..", name)
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("committed baseline %s missing: %v", name, err)
		}
		var out bytes.Buffer
		if err := cmdRegress([]string{"-baseline", path, "-fresh", path}, &out); err != nil {
			t.Errorf("%s fails self-comparison: %v", name, err)
		}
	}
}
