package enginetest

import (
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"morphing/internal/apps/fsm"
	"morphing/internal/apps/mc"
	"morphing/internal/apps/sc"
	"morphing/internal/core"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/graphpi"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

var update = flag.Bool("update", false, "rewrite testdata/counters.golden.json with the current counters")

// counterWorkload is one batch workload of the repo benchmark, rebuilt from
// its inputs: the recipe at its scale with the seeded rewiring, the engine,
// the tier and the query.
type counterWorkload struct {
	recipe               string
	scale                float64
	graphpi, mmap, morph bool
	app                  string // mc4 | fsm | sc
}

var counterWorkloads = map[string]counterWorkload{
	"mc4-morph":   {recipe: "MG", scale: 0.003, morph: true, app: "mc4"},
	"mc4-direct":  {recipe: "MG", scale: 0.003, app: "mc4"},
	"fsm-labeled": {recipe: "MI", scale: 0.003, morph: true, app: "fsm"},
	"sc-mmap":     {recipe: "MG", scale: 0.03, graphpi: true, mmap: true, morph: true, app: "sc"},
}

// counterSeed is the seed the golden counters are recorded at.
const counterSeed = 1

// rewiredGraph is the benchmark's data graph for a seed: a tenth of the
// edges between two vertices of at most mean degree re-drawn between such
// vertices, the hubs and the recipe's own seed left alone.
func rewiredGraph(t *testing.T, recipe string, scale float64, seed int64) *graph.Graph {
	t.Helper()
	rec, err := dataset.ByName(recipe)
	if err != nil {
		t.Fatal(err)
	}
	base, err := rec.Scaled(scale).Generate()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	n := base.NumVertices()
	sparse := func(v uint32) bool { return float64(base.Degree(v)) <= base.AvgDegree() }
	var pool []uint32
	for v := 0; v < n; v++ {
		if sparse(uint32(v)) {
			pool = append(pool, uint32(v))
		}
	}
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for _, v := range base.Neighbors(uint32(u)) {
			if uint32(u) >= v {
				continue
			}
			if sparse(uint32(u)) && sparse(v) && rng.Float64() < 0.1 {
				if x, y := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]; x != y {
					b.AddEdge(x, y)
				}
				continue
			}
			b.AddEdge(uint32(u), v)
		}
	}
	if base.Labeled() {
		b.SetLabels(base.Labels())
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runCounters runs one query of w and returns its exact counters, named as
// the benchmark reports them.
func runCounters(t *testing.T, w counterWorkload) map[string]uint64 {
	t.Helper()
	plain := rewiredGraph(t, w.recipe, w.scale, counterSeed)
	var g graph.Adjacency = plain
	if w.mmap {
		cg, err := graph.Compress(plain, 0)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "g.mcsr")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := cg.WriteBinary2(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		h, err := graph.Open(path, graph.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		g = h.Graph()
	}
	// One worker: which rows a worker finds still pinned depends on the
	// roots it ran before, so decode counts are exact on one worker only.
	var eng engine.Engine = &peregrine.Engine{Threads: 1, Instrument: true}
	if w.graphpi {
		eng = &graphpi.Engine{Threads: 1, Instrument: true}
	}
	ctx := context.Background()
	out := map[string]uint64{}
	var runs []*core.RunStats
	switch w.app {
	case "mc4":
		res, err := mc.CountCtx(ctx, g, 4, eng, w.morph)
		if err != nil {
			t.Fatal(err)
		}
		runs = []*core.RunStats{res.Stats}
	case "sc":
		var qs []*pattern.Pattern
		for _, name := range []string{"p1:v", "p2:v", "p3"} {
			name, induced := strings.CutSuffix(name, ":v")
			p, err := pattern.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if induced {
				p = p.AsVertexInduced()
			}
			qs = append(qs, p)
		}
		_, st, err := sc.CountCtx(ctx, g, qs, eng, w.morph)
		if err != nil {
			t.Fatal(err)
		}
		runs = []*core.RunStats{st}
	case "fsm":
		freq, st, err := fsm.MineCtx(ctx, g, eng, fsm.Options{Morph: w.morph, MaxEdges: 3, MinSupport: g.NumVertices() / 30})
		if err != nil {
			t.Fatal(err)
		}
		runs = st.Runs
		out["apps.fsm_frequent"] = uint64(len(freq))
		for _, run := range runs {
			out["aggr.mni_tables"] += uint64(len(run.Selection.Queries))
		}
	}
	var m engine.Stats
	var decode graph.DecodeStats
	for _, run := range runs {
		if run.Mining != nil {
			m.Add(run.Mining)
		}
		if run.Decode != nil {
			decode.Add(*run.Decode)
		}
	}
	for name, v := range map[string]uint64{
		"engine.matches": m.Matches, "engine.materialized": m.Materialized,
		"engine.udf_calls": m.UDFCalls, "engine.trie_passes": m.TriePasses,
		"setops.ops": m.SetOps, "setops.elems": m.SetElems, "setops.written_elems": m.SetWritten,
		"setops.merge_ops": m.SetMergeOps, "setops.gallop_ops": m.SetGallopOps,
		"setops.bitset_ops": m.SetBitsetOps, "setops.unrolled_ops": m.SetUnrolledOps,
		"setops.tile_ops": m.SetTileOps, "setops.countonly_ops": m.SetCountOps,
		"graph.decode_rows": decode.Rows, "graph.decode_elems": decode.Elems,
	} {
		out[name] = v
	}
	return out
}

// TestBenchmarkCounters pins the exact counters of one query of each batch
// workload of the repo benchmark at seed 1 — matches, materialized and
// delivered matches, passes, every set-operation count, decoded rows and
// elements, MNI tables and frequent patterns — against
// testdata/counters.golden.json. An executor, planner or cost-model change
// that moves the work any of them does shows here; rewrite the file with
// -update when the move is intended, and say why.
func TestBenchmarkCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four benchmark queries")
	}
	got := map[string]map[string]uint64{}
	for name, w := range counterWorkloads {
		got[name] = runCounters(t, w)
	}
	golden := filepath.Join("testdata", "counters.golden.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]map[string]uint64
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, counters := range want {
		for counter, v := range counters {
			if g := got[name][counter]; g != v {
				t.Errorf("%s: %s = %d, golden %d", name, counter, g, v)
			}
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d workloads, the test runs %d", len(want), len(got))
	}
}
