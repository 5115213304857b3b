package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// cmdRegress is the perf regression gate: it compares a freshly produced
// BENCH_*.json against a committed baseline and fails when any
// benchmark's speedup dropped by more than the noise tolerance. The
// comparison is on speedup — a dimensionless adaptive-vs-naive ratio
// measured within one process on one machine — so a baseline recorded on
// different hardware still gates meaningfully, unlike absolute ns/op.
func cmdRegress(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("regress", flag.ExitOnError)
	baselinePath := fs.String("baseline", "", "committed BENCH_*.json to gate against (required)")
	freshPath := fs.String("fresh", "", "freshly produced BENCH_*.json of the same benchmark (required)")
	tolerance := fs.Float64("tolerance", 0.10, "allowed fractional speedup drop before a result counts as regressed")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: morphbench regress -baseline BENCH_kernels.json -fresh new.json [-tolerance 0.10]`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baselinePath == "" || *freshPath == "" {
		fs.Usage()
		return fmt.Errorf("both -baseline and -fresh are required")
	}
	if *tolerance < 0 || *tolerance >= 1 {
		return fmt.Errorf("-tolerance %v out of range [0, 1)", *tolerance)
	}
	base, err := loadRegressFile(*baselinePath)
	if err != nil {
		return err
	}
	fresh, err := loadRegressFile(*freshPath)
	if err != nil {
		return err
	}

	freshByKey := make(map[string]regressResult, len(fresh.Results))
	for _, r := range fresh.Results {
		freshByKey[r.key()] = r
	}

	fmt.Fprintf(w, "comparing %s against baseline %s (tolerance %.0f%%)\n",
		*freshPath, *baselinePath, *tolerance*100)
	printMetaMismatch(w, base.Meta, fresh.Meta)
	var regressed []string
	for _, b := range base.Results {
		f, ok := freshByKey[b.key()]
		if !ok {
			regressed = append(regressed, b.key())
			fmt.Fprintf(w, "  MISSING   %-40s in baseline but not in fresh results\n", b.key())
			continue
		}
		delta := 0.0
		if b.Speedup > 0 {
			delta = f.Speedup/b.Speedup - 1
		}
		status := "ok"
		if f.Speedup < b.Speedup*(1-*tolerance) {
			status = "REGRESSED"
			regressed = append(regressed, b.key())
		} else if delta > *tolerance {
			status = "improved"
		}
		fmt.Fprintf(w, "  %-9s %-40s speedup %.3g -> %.3g (%+.1f%%)\n",
			status, b.key(), b.Speedup, f.Speedup, delta*100)
	}
	for _, f := range fresh.Results {
		if !hasKey(base.Results, f.key()) {
			fmt.Fprintf(w, "  new       %-40s speedup %.3g (not in baseline)\n", f.key(), f.Speedup)
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d of %d benchmarks regressed beyond %.0f%% tolerance: %v",
			len(regressed), len(base.Results), *tolerance*100, regressed)
	}
	fmt.Fprintf(w, "all %d benchmarks within tolerance\n", len(base.Results))
	return nil
}

// regressResult is the benchmark-shape-agnostic view of one BENCH_*.json
// result: a name, an optional shape, and a dimensionless speedup.
type regressResult struct {
	Name    string  `json:"name"`
	Shape   string  `json:"shape"`
	Speedup float64 `json:"speedup"`
}

func (r regressResult) key() string {
	if r.Shape != "" {
		return r.Name + " / " + r.Shape
	}
	return r.Name
}

type regressFile struct {
	Timestamp string          `json:"timestamp"`
	Meta      *benchMeta      `json:"meta"`
	Results   []regressResult `json:"results"`
}

// printMetaMismatch notes when the two files were produced on visibly
// different environments. Speedups are dimensionless so the comparison
// still gates, but a mismatch is the first thing to check when a result
// moves — say so instead of leaving it to archaeology. Older files
// without a meta block are skipped.
func printMetaMismatch(w io.Writer, base, fresh *benchMeta) {
	if base == nil || fresh == nil || *base == *fresh {
		return
	}
	diff := func(field, b, f string) {
		if b != f {
			fmt.Fprintf(w, "  note: %s differs: baseline %q, fresh %q\n", field, b, f)
		}
	}
	diff("go version", base.GoVersion, fresh.GoVersion)
	diff("goarch", base.GOARCH, fresh.GOARCH)
	diff("goos", base.GOOS, fresh.GOOS)
	diff("cpu model", base.CPUModel, fresh.CPUModel)
	if base.GOMAXPROCS != fresh.GOMAXPROCS {
		fmt.Fprintf(w, "  note: gomaxprocs differs: baseline %d, fresh %d\n", base.GOMAXPROCS, fresh.GOMAXPROCS)
	}
}

func loadRegressFile(path string) (*regressFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f regressFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Results) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	seen := make(map[string]bool, len(f.Results))
	for _, r := range f.Results {
		if r.Speedup <= 0 {
			return nil, fmt.Errorf("%s: result %q has no speedup", path, r.key())
		}
		if seen[r.key()] {
			return nil, fmt.Errorf("%s: duplicate result key %q", path, r.key())
		}
		seen[r.key()] = true
	}
	return &f, nil
}

func hasKey(rs []regressResult, key string) bool {
	for _, r := range rs {
		if r.key() == key {
			return true
		}
	}
	return false
}
