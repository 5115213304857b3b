// Command benchmark is the repo's benchmark: six workloads, each run in
// a process of its own, every answer checked, end-to-end metrics from
// untraced runs and per-layer metrics from a separate traced run.
// BENCHMARK.json at the repo root declares the workloads and metrics;
// README.md beside this file says what each one means.
//
//	go run -C benchmark . [-quick] [-workload a,b] [-seed n]   every workload, both passes
//	go run -C benchmark . -agree                                two full sets, compared
//	go run -C benchmark . -compare a.json b.json                two saved results, compared
//	go run -C benchmark . -workload w -seed n -seconds s -trace 0|1   one run (the driver's form)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	root, outDir string
	spec         *spec
	name         string
	p            params
	seed         int64
	seconds      float64
	trace        bool
	quick        bool
	setupReps    int
	gold         *golden
}

// outcome is what a run measured and checked.
type outcome struct {
	attempted, failed int
	failures          []string
	e2e               map[string]measured
	layer             map[string]float64
	samples           int       // traced pass: replayed queries or served requests
	rawMS             []float64 // every timed operation as measured, sorted
	rawQPS, rawSetup  float64   // throughput and set-up time as measured
	speed             float64   // median calibration factor of the timed phase
}

type measured struct {
	value float64
	n     int
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]measured{}, layer: map[string]float64{}}
}

func (o *outcome) fail(msg string) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, msg)
	}
}

func (o *outcome) set(name string, v float64, n int) { o.e2e[name] = measured{v, n} }

// summarise turns the timed phase into the latency and throughput
// figures, in reference-box time (see calibrate.go): the median over all
// operations, and the median over the segments of each one's
// completed-and-correct operations per second. callers is the number of
// closed-loop callers: with one (batch) the time between queries —
// forced GC, answer check — is not the system's and is left out of the
// throughput; with several the segment's wall time is the denominator.
func (o *outcome) summarise(segs []segment, callers int) {
	var ref, qps, speeds []float64
	var rawTime float64
	good := 0
	for _, s := range segs {
		busy, ok := s.wall, 0
		if callers == 1 {
			busy = 0
		}
		for _, op := range s.ops {
			o.rawMS = append(o.rawMS, op.ms())
			ref = append(ref, op.ms()*s.speed)
			if callers == 1 {
				busy += op.end - op.start
			}
			if op.ok {
				ok++
			}
		}
		if busy > 0 {
			qps = append(qps, float64(ok)/(busy.Seconds()*s.speed))
		}
		good += ok
		rawTime += busy.Seconds()
		speeds = append(speeds, s.speed)
	}
	sort.Float64s(o.rawMS)
	o.speed = median(speeds)
	o.rawQPS = float64(good) / rawTime
	o.set("latency_p50_ms", median(ref), len(ref))
	o.set("throughput_qps", median(qps), len(qps))
}

// line is the last line of a run's standard output, in the form the
// driver reads.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the run by name, unit and sample count, then the
// driver's line. It is an error for a declared metric to be missing or
// not finite, or for the run to have collected one that is not declared.
func (o *outcome) report(rc *runConfig) (line, error) {
	l := line{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v  quick %v\n", rc.name, rc.seed, rc.seconds, rc.trace, rc.quick)
	for _, f := range o.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	decls, got := rc.spec.EndToEnd, map[string]float64{}
	if rc.trace {
		decls, got = rc.spec.PerLayer, o.layer
	} else {
		for k, m := range o.e2e {
			got[k] = m.value
		}
		if n := len(o.rawMS); n > 0 {
			fmt.Printf("  as measured: n=%d  min=%.4f  q1=%.4f  median=%.4f  q3=%.4f  p99=%.4f ms  throughput=%.4f 1/s  setup=%.4f s\n", n,
				o.rawMS[0], quantile(o.rawMS, 0.25), quantile(o.rawMS, 0.5), quantile(o.rawMS, 0.75), quantile(o.rawMS, 0.99), o.rawQPS, o.rawSetup)
			fmt.Printf("  calibration factor %.4f (1 = the quiet reference box); the times below are scaled by it\n", o.speed)
		}
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.Name] = true
		v, ok := got[d.Name]
		if !ok && !rc.trace {
			return l, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return l, fmt.Errorf("metric %s is not finite: %v", d.Name, v)
		}
		n := o.samples
		if m, ok := o.e2e[d.Name]; ok && !rc.trace {
			n = m.n
		}
		fmt.Printf("  %-36s %16.6g %-6s n=%d\n", d.Name, v, d.Unit, n)
		l.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for k := range got {
		if !declared[k] {
			return l, fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", k)
		}
	}
	return l, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload name, or several separated by commas (default: all declared)")
	seed := flag.Int64("seed", goldenSeed, "seed of the generated inputs: graph rewiring, probe pairs, request sequence")
	seconds := flag.Float64("seconds", 0, "length of a run's timed phase (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", -1, "0: one untraced run, end-to-end metrics; 1: one traced run, per-layer metrics; unset: both, every workload in a child process")
	quick := flag.Bool("quick", false, "smoke mode: sizes and times cut about twentyfold; results are stamped quick and never compared with full ones")
	agree := flag.Bool("agree", false, "run the full set twice and compare the two against the bounds")
	compare := flag.Bool("compare", false, "compare two saved results: -compare a.json b.json")
	outPath := flag.String("out", "", "where the full run writes its result (default .bench_build/result.json)")
	goldenPath := flag.String("golden", "", "expected answers at the default seed (default benchmark/golden.json)")
	doRecord := flag.Bool("record", false, "recompute the golden file from refmatch and route agreement, then exit")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(sp, flag.Arg(0), flag.Arg(1))
	}
	if *seconds == 0 {
		*seconds = float64(sp.RunSeconds)
		if *quick {
			*seconds = 0.5
		}
	}
	outDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if *workload != "" {
		names = strings.Split(*workload, ",")
		for _, n := range names {
			if _, ok := workloads[n]; !ok {
				return fmt.Errorf("unknown workload %q", n)
			}
		}
	}

	if *goldenPath == "" {
		*goldenPath = filepath.Join(root, "benchmark", "golden.json")
	}
	if *doRecord {
		return record(context.Background(), &runConfig{root: root, outDir: outDir, spec: sp}, *goldenPath)
	}

	if *trace >= 0 {
		if len(names) != 1 {
			return fmt.Errorf("-trace 0|1 runs one workload; name it with -workload")
		}
		gold, err := loadGolden(*goldenPath)
		if err != nil {
			return err
		}
		rc := &runConfig{root: root, outDir: outDir, spec: sp, name: names[0], p: workloads[names[0]],
			seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, setupReps: 5, gold: gold}
		if *quick || rc.trace {
			rc.setupReps = 1
		}
		return runOne(rc)
	}

	m := collectMeta(root, *seed, *seconds, *quick)
	if *outPath == "" {
		*outPath = filepath.Join(outDir, "result.json")
	}
	if *agree {
		return runAgree(sp, m, names, outDir, *goldenPath)
	}
	res, err := runAll(sp, m, names, *goldenPath)
	if err != nil {
		return err
	}
	if err := res.save(*outPath); err != nil {
		return err
	}
	fmt.Printf("result written to %s; traces beside it as trace-<workload>.json\n", *outPath)
	if !res.correct() {
		return fmt.Errorf("some operations failed")
	}
	return nil
}

// runOne is one contract run in this process.
func runOne(rc *runConfig) error {
	ctx := context.Background()
	var out *outcome
	var err error
	if rc.p.serve {
		out, err = runServe(ctx, rc)
	} else {
		out, err = runBatch(ctx, rc)
	}
	if err != nil {
		return err
	}
	l, err := out.report(rc)
	if err != nil {
		return err
	}
	data, err := json.Marshal(l)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !l.Correct {
		return fmt.Errorf("%d of %d operations failed", l.Failed, l.Attempted)
	}
	return nil
}

// result is the document a full run writes.
type result struct {
	Meta      meta                       `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Why       string                 `json:"why"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

func (r *result) correct() bool {
	for _, w := range r.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

func (r *result) save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every named workload, each pass in a fresh child process:
// a process of its own gives each workload its own peak memory and no
// warmth from the one before.
func runAll(sp *spec, m meta, names []string, goldenPath string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	fmt.Printf("meta: %+v\n", m)
	res := &result{Meta: m, Workloads: map[string]*workloadResult{}}
	why := map[string]string{}
	for _, w := range sp.Workloads {
		why[w.Name] = w.Why
	}
	// Timed passes first, traced passes after all of them.
	for _, trace := range []int{0, 1} {
		for _, name := range names {
			args := []string{"-workload", name, "-seed", fmt.Sprint(m.Seed), "-seconds", fmt.Sprint(m.Seconds), "-trace", fmt.Sprint(trace), "-golden", goldenPath}
			if m.Quick {
				args = append(args, "-quick")
			}
			l, err := child(self, args)
			if err != nil {
				return nil, fmt.Errorf("%s (trace %d): %w", name, trace, err)
			}
			w := res.Workloads[name]
			if w == nil {
				w = &workloadResult{Why: why[name], Correct: true}
				res.Workloads[name] = w
			}
			w.Correct = w.Correct && l.Correct
			w.Attempted += l.Attempted
			w.Failed += l.Failed
			if trace == 0 {
				w.EndToEnd = l.Metrics
			} else {
				w.PerLayer = l.Metrics
			}
		}
	}
	return res, nil
}

// child runs this program once more with args, passes its output
// through, and parses the last line of its standard output. A run whose
// operations failed still returns its line.
func child(self string, args []string) (*line, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	stdout, runErr := cmd.Output()
	text := strings.TrimRight(string(stdout), "\n")
	last := text[strings.LastIndexByte(text, '\n')+1:]
	fmt.Println(strings.TrimSuffix(text, last) + fmt.Sprintf("  (%.1f s)", time.Since(t0).Seconds()))
	var l line
	if err := json.Unmarshal([]byte(last), &l); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &l, nil
}
