package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildSelf compiles the benchmark once per test binary.
func buildSelf(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestQuick runs every workload, both passes, at smoke size and checks
// that what is printed is what BENCHMARK.json declares, that every
// answer was right, and that the workloads separate the layers the way
// they were chosen to.
func TestQuick(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	bin := buildSelf(t)
	resPath := filepath.Join(t.TempDir(), "result.json")
	if out, err := exec.Command(bin, "-quick", "-out", resPath).CombinedOutput(); err != nil {
		t.Fatalf("quick run: %v\n%s", err, out)
	}
	data, err := os.ReadFile(resPath)
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Meta.Quick {
		t.Error("a -quick result must be stamped quick")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	if len(res.Workloads) != len(sp.Workloads) {
		t.Errorf("%d workloads reported, %d declared", len(res.Workloads), len(sp.Workloads))
	}
	sameNames := func(w, kind string, got map[string]metricValue, decls []metricDecl) {
		if len(got) != len(decls) {
			t.Errorf("%s: %d %s metrics reported, %d declared", w, len(got), kind, len(decls))
		}
		for _, d := range decls {
			v, ok := got[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: declared %s metric %s not reported", w, kind, d.Name)
			case !name.MatchString(d.Name):
				t.Errorf("%s: bad metric name %q", w, d.Name)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("%s: %s = %v", w, d.Name, v.Value)
			case v.Unit == "" || v.Unit != d.Unit:
				t.Errorf("%s: %s has unit %q, declared %q", w, d.Name, v.Unit, d.Unit)
			case kind == "end-to-end" && v.Value <= 0:
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, d.Name, v.Value)
			}
		}
	}
	layer := func(w, m string) float64 { return res.Workloads[w].PerLayer[m].Value }
	for _, d := range sp.Workloads {
		w := res.Workloads[d.Name]
		if w == nil {
			t.Fatalf("declared workload %s not reported", d.Name)
		}
		if !name.MatchString(d.Name) {
			t.Errorf("bad workload name %q", d.Name)
		}
		sameNames(d.Name, "end-to-end", w.EndToEnd, sp.EndToEnd)
		sameNames(d.Name, "per-layer", w.PerLayer, sp.PerLayer)
		if !w.Correct || w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", d.Name, w.Correct, w.Failed, w.Attempted)
		}
		p := workloads[d.Name]
		if !p.serve && layer(d.Name, "trace.unattributed_share") >= 0.10 {
			t.Errorf("%s: %.3f of the replayed query is in no span", d.Name, layer(d.Name, "trace.unattributed_share"))
		}
		if rows := layer(d.Name, "graph.decode_rows"); p.mmap != (rows > 0) {
			t.Errorf("%s: graph.decode_rows = %v, compressed tier = %v", d.Name, rows, p.mmap)
		}
	}
	if s := layer("serve-hit", "server.cache_hit_share"); s < 0.99 {
		t.Errorf("serve-hit: cache hit share %v, want >= 0.99", s)
	}
	if s := layer("serve-miss", "server.cache_hit_share"); s != 0 {
		t.Errorf("serve-miss: cache hit share %v, want 0", s)
	}
	if d, m := layer("mc4-direct", "setops.ops"), layer("mc4-morph", "setops.ops"); d <= m {
		t.Errorf("setops.ops: direct %v <= morph %v", d, m)
	}
	if q := layer("mc4-morph", "core.morphed_queries"); q <= 0 {
		t.Errorf("mc4-morph: core.morphed_queries = %v", q)
	}
	if q := layer("mc4-direct", "core.morphed_queries"); q != 0 {
		t.Errorf("mc4-direct: core.morphed_queries = %v", q)
	}
}

// TestCorruptGoldenFails changes one expected count and wants the run to
// say so and exit non-zero.
func TestCorruptGoldenFails(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGolden(filepath.Join(root, "benchmark", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	for k := range g.Quick["mc4-morph"] {
		g.Quick["mc4-morph"][k]++
		break
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "golden.json")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	bin := buildSelf(t)
	out, err := exec.Command(bin, "-quick", "-workload", "mc4-morph", "-trace", "0", "-golden", bad).Output()
	if err == nil {
		t.Fatalf("a run against a corrupted golden file exited 0:\n%s", out)
	}
	var l line
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	if l.Correct || l.Failed == 0 {
		t.Errorf("correct=%v failed=%d, want a failure", l.Correct, l.Failed)
	}
}
