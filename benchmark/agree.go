package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
)

// exact lists the per-layer counters that, on the batch workloads, must
// repeat bit for bit between two runs of one commit with one seed: work
// done, not time taken. A counter that -agree finds unequal is reported
// and loses its place here.
var exact = map[string]bool{
	"core.mined_patterns": true, "core.morphed_queries": true, "core.cost_ratio": true,
	"plan.trie_nodes": true, "plan.trie_shared_levels": true,
	"engine.matches": true, "engine.materialized": true, "engine.udf_calls": true,
	"engine.branches": true, "engine.trie_passes": true,
	"setops.ops": true, "setops.elems": true, "setops.written_elems": true,
	"setops.merge_ops": true, "setops.gallop_ops": true, "setops.bitset_ops": true,
	"setops.unrolled_ops": true, "setops.tile_ops": true, "setops.countonly_ops": true,
	"graph.bytes_per_edge": true, "graph.decode_elems_per_edge": true,
	"aggr.mni_tables": true, "apps.fsm_levels": true, "apps.fsm_candidates": true, "apps.fsm_frequent": true,
}

// runAgree runs the full set twice and compares the two.
func runAgree(sp *spec, m meta, names []string, outDir, goldenPath string) error {
	var sets [2]*result
	for i := range sets {
		fmt.Printf("=== set %d of 2 ===\n", i+1)
		res, err := runAll(sp, m, names, goldenPath)
		if err != nil {
			return err
		}
		if err := res.save(filepath.Join(outDir, fmt.Sprintf("agree-%d.json", i+1))); err != nil {
			return err
		}
		if !res.correct() {
			return fmt.Errorf("set %d: some operations failed", i+1)
		}
		sets[i] = res
	}
	return compareResults(sp, sets[0], sets[1])
}

func compareFiles(sp *spec, a, b string) error {
	var rs [2]*result
	for i, path := range []string{a, b} {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rs[i] = &result{}
		if err := json.Unmarshal(data, rs[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return compareResults(sp, rs[0], rs[1])
}

// compareResults prints, per workload and end-to-end metric, both values,
// how much worse b is than a, and PASS or UNRESOLVED against the metric's
// bound; then checks the exact counters where both sides used one seed.
func compareResults(sp *spec, a, b *result) error {
	ma, mb := a.Meta, b.Meta
	sameSeed := ma.Seed == mb.Seed
	ma.Commit, mb.Commit, ma.Seed, mb.Seed = "", "", 0, 0
	if !reflect.DeepEqual(ma, mb) {
		return fmt.Errorf("the two results are not comparable:\n  a: %+v\n  b: %+v", a.Meta, b.Meta)
	}
	unresolved := 0
	fmt.Printf("%-12s %-16s %14s %14s %8s %7s\n", "workload", "metric", "a", "b", "worse", "bound")
	for _, w := range sp.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range sp.EndToEnd {
			va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = (va - vb) / va
			}
			verdict := "PASS"
			if worse > d.Bound || -worse > d.Bound {
				verdict = "UNRESOLVED"
				unresolved++
			}
			fmt.Printf("%-12s %-16s %14.6g %14.6g %+7.1f%% %6.0f%%  %s\n", w.Name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
		if !sameSeed || workloads[w.Name].serve {
			continue // serve-* counters are per-request means over a time-bound load
		}
		var names []string
		for k := range wa.PerLayer {
			if exact[k] {
				names = append(names, k)
			}
		}
		sort.Strings(names)
		for _, k := range names {
			if p, q := wa.PerLayer[k].Value, wb.PerLayer[k].Value; p != q {
				fmt.Printf("%-12s %-36s %v != %v  NOT EXACT\n", w.Name, k, p, q)
				unresolved++
			}
		}
	}
	if unresolved > 0 {
		return fmt.Errorf("%d comparisons are unresolved", unresolved)
	}
	fmt.Println("all PASS; exact counters identical")
	return nil
}
