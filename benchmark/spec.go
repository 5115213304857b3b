package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// spec is BENCHMARK.json: the declared workloads and metrics. It is the
// single list of names — the program prints exactly the metrics declared
// there, and refuses a workload or a collected value it does not name.
type spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot walks up from the working directory to the checkout root: the
// directory holding BENCHMARK.json beside cmd/morphd.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "morphd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout root (BENCHMARK.json beside cmd/morphd) above the working directory")
		}
		dir = parent
	}
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			return nil, fmt.Errorf("BENCHMARK.json declares workload %q, which this program does not implement", w.Name)
		}
	}
	if len(s.Workloads) != len(workloads) {
		return nil, fmt.Errorf("BENCHMARK.json declares %d workloads, this program implements %d", len(s.Workloads), len(workloads))
	}
	return &s, nil
}

// params are one workload's frozen inputs. The sizes were chosen on the
// reference box (2 vCPUs) so that a 12 s timed phase holds at least two
// dozen queries of the slowest batch workload; see README "Sizes".
type params struct {
	serve   bool
	recipe  string  // dataset recipe name
	scale   float64 // recipe scale
	quick   float64 // recipe scale under -quick
	engine  string  // peregrine | graphpi
	mmap    bool    // mine a delta-varint .mcsr opened with graph.Open
	morph   bool
	app     string // mc4 | fsm | sc
	noCache bool   // serve: every request bypasses the result cache
}

// size is the recipe scale a run uses.
func (p params) size(quick bool) float64 {
	if quick {
		return p.quick
	}
	return p.scale
}

var workloads = map[string]params{
	"mc4-morph":   {recipe: "MG", scale: 0.003, quick: 0.0005, engine: "peregrine", morph: true, app: "mc4"},
	"mc4-direct":  {recipe: "MG", scale: 0.003, quick: 0.0005, engine: "peregrine", morph: false, app: "mc4"},
	"fsm-labeled": {recipe: "MI", scale: 0.003, quick: 0.003, engine: "peregrine", morph: true, app: "fsm"},
	"sc-mmap":     {recipe: "MG", scale: 0.03, quick: 0.003, engine: "graphpi", morph: true, app: "sc", mmap: true},
	"serve-miss":  {serve: true, recipe: "MI", scale: 0.01, quick: 0.003, noCache: true},
	"serve-hit":   {serve: true, recipe: "MI", scale: 0.01, quick: 0.003},
}

// fsmSupportDivisor sets the MNI support threshold to |V|/divisor.
const fsmSupportDivisor = 30

// scQueries are sc-mmap's query set: p1 and p2 vertex-induced (which the
// GraphPi model only supports through morphing) and the 4-clique.
var scQueries = []string{"p1:v", "p2:v", "p3"}

// servePool is the pool of small count queries the serve workloads draw
// from by seed.
var servePool = [][]string{
	{"triangle"},
	{"p1"},
	{"p2"},
	{"p3"},
	{"p1:v"},
	{"p2:v"},
	{"4-cycle:v"},
	{"triangle", "4-cycle:v"},
	{"4-star:v", "tailed-triangle:v"},
	{"4-clique", "chordal-4-cycle:v"},
	{"p1:v", "p2:v", "p3"},
	{"4-star:v", "tailed-triangle:v", "4-cycle:v", "chordal-4-cycle:v", "4-clique:v"},
}

// serveClients is the closed-loop client count: one keep-alive
// connection each, never more than the box has CPUs.
const serveClients = 2
