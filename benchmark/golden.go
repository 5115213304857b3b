package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"morphing/internal/aggr"
	"morphing/internal/canon"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/refmatch"
)

// goldenSeed is the seed golden.json was recorded at. Batch answers are
// checked against it at that seed only; the serve workloads' graph does
// not depend on the seed, so theirs are checked on every run.
const goldenSeed = 1

// golden is golden.json: per size and workload, the expected answer.
// README "Correctness" says how the values are produced; -record
// produces them.
type golden struct {
	Full  map[string]answer `json:"full"`
	Quick map[string]answer `json:"quick"`
}

func (g *golden) lookup(name string, quick bool) (answer, bool) {
	m := g.Full
	if quick {
		m = g.Quick
	}
	a, ok := m[name]
	return a, ok
}

func loadGolden(path string) (*golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}

// record recomputes golden.json. No value comes from one route alone:
// every answer must agree between the morphed and the direct route, and
// at the quick size — the down-scaled twin of each workload — every
// count and support is recomputed from refmatch, the brute-force oracle
// that shares no code with the engines.
func record(ctx context.Context, rc *runConfig, path string) error {
	out := golden{Full: map[string]answer{}, Quick: map[string]answer{}}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, quick := range []bool{true, false} {
		into := out.Full
		if quick {
			into = out.Quick
		}
		for _, name := range names {
			c := *rc
			c.name, c.p, c.quick, c.seed = name, workloads[name], quick, goldenSeed
			var a answer
			var g *graph.Graph
			var err error
			if c.p.serve {
				g, _, a, err = serveExpected(ctx, &c)
			} else {
				if g, err = makeGraph(c.p, quick, goldenSeed); err != nil {
					return err
				}
				var b answer
				if a, err = reference(ctx, c.p, g); err == nil {
					b, _, err = runApp(ctx, c.p, g, newEngine("peregrine", false), c.p.morph)
				}
				if err == nil && !a.equal(b) {
					err = fmt.Errorf("morphed and direct routes disagree")
				}
			}
			if err == nil && quick {
				err = oracle(c.p, g, a)
			}
			if err != nil {
				return fmt.Errorf("%s (quick %v): %w", name, quick, err)
			}
			into[name] = a
			fmt.Printf("recorded %s (quick %v): %d values\n", name, quick, len(a))
		}
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// oracle recomputes every value of a from refmatch on g.
func oracle(p params, g *graph.Graph, a answer) error {
	for key, want := range a {
		text := key
		if p.serve {
			_, text, _ = strings.Cut(key, "/") // "<pool index>/<pattern>"
		}
		pat, err := pattern.Parse(text)
		if err != nil {
			return err
		}
		var got uint64
		if p.app == "fsm" {
			tbl := aggr.NewTable(pat.N())
			auts := canon.Automorphisms(pat)
			for _, m := range refmatch.Matches(g, pat) {
				tbl.InsertAll(m, auts)
			}
			got = uint64(tbl.Support())
		} else {
			got = refmatch.Count(g, pat)
		}
		if got != want {
			return fmt.Errorf("%s: engines say %d, refmatch says %d", key, want, got)
		}
	}
	return nil
}
