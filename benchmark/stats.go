package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// quantile returns the q-quantile (0..1) of sorted xs by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// peakRSSMiB is the high-water resident set of process pid: VmHWM of
// /proc/<pid>/status, which starts from nothing at exec. ru_maxrss does
// not — across fork and exec it carries the parent's high-water mark, so
// under `go run` it reads the go command's 26 MiB — and is only the
// fallback for kernels that hide VmHWM; 0 if neither is to be had.
func peakRSSMiB(pid int, fallback *syscall.Rusage) float64 {
	if data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kib float64
				if _, err := fmt.Sscan(rest, &kib); err == nil {
					return kib / 1024
				}
			}
		}
	}
	if fallback != nil {
		return float64(fallback.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// selfPeakRSSMiB is this process's high-water resident set.
func selfPeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return peakRSSMiB(os.Getpid(), nil)
	}
	return peakRSSMiB(os.Getpid(), &ru)
}

// meta pins the environment a result was produced on (the
// BENCH_kernels.json idiom), so two results are only compared when they
// come from like machines.
type meta struct {
	GoVersion  string  `json:"go_version"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model,omitempty"`
	Commit     string  `json:"git_commit,omitempty"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
}

func collectMeta(root string, seed int64, seconds float64, quick bool) meta {
	m := meta{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       seed,
		Seconds:    seconds,
		Quick:      quick,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				if _, v, ok := strings.Cut(name, ":"); ok {
					m.CPUModel = strings.TrimSpace(v)
					break
				}
			}
		}
	}
	// Best effort: the driver's checkout is not a git repository.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}
