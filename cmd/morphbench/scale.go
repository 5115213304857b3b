package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"morphing/internal/core"
	"morphing/internal/dataset"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// `morphbench scale` exercises the billion-edge data plane end to end:
// it generates a large synthetic recipe, compresses it into the v2
// binary format, drops the in-RAM copy, re-opens the file mmap-backed,
// and mines a triangle workload shard-per-partition on the compressed
// tier — the exact out-of-core pipeline an over-RAM graph takes. The
// report (stdout, or the -out file) records the storage economics
// (bytes/edge, compression ratio), the decode overhead (varint elements
// decoded per edge, and wall-time ratio vs the plain tier with
// -compare), and the peak RSS of the mining phase, which -membudget
// turns into a hard pass/fail gate. The report's compression ratio is
// dimensionless and machine-independent, unlike its wall times; CI
// asserts it stays above 1.

type scaleReport struct {
	Timestamp string  `json:"timestamp"`
	GoVersion string  `json:"go_version"`
	GOARCH    string  `json:"goarch"`
	Graph     string  `json:"graph"`
	Scale     float64 `json:"scale"`
	Threads   int     `json:"threads"`
	Shards    int     `json:"shards"`
	Block     int     `json:"block"`

	Vertices int    `json:"vertices"`
	Edges    uint64 `json:"edges"`

	// Conversion phase.
	GenerateNS      int64   `json:"generate_ns"`
	RenumberNS      int64   `json:"renumber_ns"`
	CompressNS      int64   `json:"compress_ns"`
	WriteNS         int64   `json:"write_ns"`
	FileBytes       int64   `json:"file_bytes"`
	PlainBytes      uint64  `json:"plain_bytes"`
	CompressedBytes uint64  `json:"compressed_bytes"`
	BytesPerEdge    float64 `json:"bytes_per_edge"`
	MaxBlockBytes   int     `json:"max_block_bytes"`
	ConvertPeakRSS  uint64  `json:"convert_peak_rss_bytes"`

	// Load + mining phase (after the in-RAM copy is dropped).
	OpenNS             int64    `json:"open_ns"`
	Mapped             bool     `json:"mapped"`
	Patterns           []string `json:"patterns"`
	Counts             []uint64 `json:"counts"`
	MineNS             int64    `json:"mine_ns"`
	MineShards         int      `json:"mine_shards"`
	DecodeRows         uint64   `json:"decode_rows"`
	DecodeBlocks       uint64   `json:"decode_blocks"`
	DecodeElems        uint64   `json:"decode_elems"`
	DecodeElemsPerEdge float64  `json:"decode_elems_per_edge"`
	MinePeakRSS        uint64   `json:"mine_peak_rss_bytes"`
	MemBudget          uint64   `json:"mem_budget_bytes,omitempty"`

	// -compare: the same mining run on the plain in-RAM tier.
	ComparePlainNS int64   `json:"compare_plain_ns,omitempty"`
	DecodeOverhead float64 `json:"decode_overhead,omitempty"` // compressed / plain wall time

	Results []scaleResult `json:"results"`
}

// scaleResult is the report's gate entry: the plain/compressed storage
// ratio, dimensionless and machine-stable.
type scaleResult struct {
	Name    string  `json:"name"`
	Shape   string  `json:"shape"`
	Speedup float64 `json:"speedup"`
}

func cmdScale(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("scale", flag.ContinueOnError)
	out := fs.String("out", "-", "output JSON path (- for stdout)")
	graphName := fs.String("graph", "OK", "dataset recipe (MI, MG, PR, OK, FR)")
	scale := fs.Float64("scale", 1.0, "dataset scale factor (OK at 1.0 is the ~114M-edge target)")
	threads := fs.Int("threads", 0, "engine worker threads (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 8, "shard-per-partition count for the mining phase (1 = unsharded)")
	block := fs.Int("block", graph.DefaultBlockSize, "adjacency block size")
	dir := fs.String("dir", "", "directory for the converted binary (default: os temp dir)")
	in := fs.String("in", "", "mine this already-converted binary instead of generating (skips the conversion phase, so -membudget gates mining alone even where peak RSS is process-lifetime)")
	keep := fs.Bool("keep", false, "keep the converted binary instead of deleting it")
	compare := fs.Bool("compare", false, "also mine the plain in-RAM tier and report the decode-overhead ratio")
	membudget := fs.String("membudget", "", "fail if the mining phase's peak RSS exceeds this (e.g. 8GiB, 512MiB)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var budget uint64
	if *membudget != "" {
		b, err := parseBytes(*membudget)
		if err != nil {
			return err
		}
		budget = b
	}
	rec, err := dataset.ByName(*graphName)
	if err != nil {
		return err
	}

	rep := scaleReport{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Graph:     *graphName,
		Scale:     *scale,
		Threads:   *threads,
		Shards:    *shards,
		Block:     *block,
		MemBudget: budget,
	}

	if *in != "" && *compare {
		return fmt.Errorf("-compare needs the in-RAM graph; it cannot be combined with -in")
	}

	// Phase 1: generate, renumber, compress, write. With -in the phase
	// is skipped entirely and the storage stats are read back from the
	// opened file.
	var g *graph.Graph
	var c *graph.CompressedGraph
	var ratio float64
	binPath := *in
	if *in == "" {
		fmt.Fprintf(os.Stderr, "== generating %s at scale %v\n", *graphName, *scale)
		t0 := time.Now()
		g, err = rec.Scaled(*scale).Generate()
		if err != nil {
			return err
		}
		rep.GenerateNS = int64(time.Since(t0))
		rep.Vertices, rep.Edges = g.NumVertices(), g.NumEdges()
		fmt.Fprintf(os.Stderr, "== %d vertices, %d edges in %v\n",
			rep.Vertices, rep.Edges, time.Duration(rep.GenerateNS).Round(time.Millisecond))

		t0 = time.Now()
		g = graph.RenumberByDegree(g)
		rep.RenumberNS = int64(time.Since(t0))

		rep.PlainBytes = 8*uint64(rep.Vertices+1) + 4*2*rep.Edges
		if g.Labeled() {
			rep.PlainBytes += 4 * uint64(rep.Vertices)
		}
		t0 = time.Now()
		c, err = graph.Compress(g, *block)
		if err != nil {
			return err
		}
		rep.CompressNS = int64(time.Since(t0))
		fp := c.Footprint()
		rep.CompressedBytes = fp.StreamBytes + fp.IndexBytes + fp.LabelBytes
		rep.BytesPerEdge = fp.BytesPerEdge
		rep.MaxBlockBytes = fp.MaxBlockBytes
		ratio = float64(rep.PlainBytes) / float64(rep.CompressedBytes)
		fmt.Fprintf(os.Stderr, "== compressed in %v: %.2f bytes/edge, %.2fx smaller than plain\n",
			time.Duration(rep.CompressNS).Round(time.Millisecond), rep.BytesPerEdge, ratio)

		outDir := *dir
		if outDir == "" {
			outDir = os.TempDir()
		}
		binPath = filepath.Join(outDir, fmt.Sprintf("morph_scale_%s.mcsr", strings.ToLower(*graphName)))
		f, err := os.Create(binPath)
		if err != nil {
			return err
		}
		t0 = time.Now()
		if err := c.WriteBinary2(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		rep.WriteNS = int64(time.Since(t0))
		if !*keep {
			defer os.Remove(binPath)
		}
		if st, err := os.Stat(binPath); err == nil {
			rep.FileBytes = st.Size()
		}
		rep.ConvertPeakRSS = peakRSS()
	}

	queries := []*pattern.Pattern{pattern.Triangle()}
	rep.Patterns = []string{"triangle"}

	// -compare mines the plain tier first, while the in-RAM graph is
	// still alive, so phase 2's RSS measurement isn't inflated by it.
	if *compare {
		fmt.Fprintf(os.Stderr, "== mining plain tier (compare)\n")
		t0 := time.Now()
		if _, _, err := scaleRunner(*threads, *shards).CountsCtx(ctx, g, queries); err != nil {
			return fmt.Errorf("plain mine: %w", err)
		}
		rep.ComparePlainNS = int64(time.Since(t0))
		fmt.Fprintf(os.Stderr, "== plain tier mined in %v\n",
			time.Duration(rep.ComparePlainNS).Round(time.Millisecond))
	}

	// Phase 2: drop the in-RAM copies, reset the RSS high-water mark,
	// re-open mmap-backed and mine on the compressed tier.
	g, c = nil, nil
	runtime.GC()
	resetPeakRSS()

	t0 := time.Now()
	h, err := graph.Open(binPath, graph.OpenOptions{})
	if err != nil {
		return err
	}
	defer h.Close()
	rep.OpenNS = int64(time.Since(t0))
	rep.Mapped = h.Mapped()
	fmt.Fprintf(os.Stderr, "== opened %s in %v (mmap=%v)\n",
		binPath, time.Duration(rep.OpenNS).Round(time.Microsecond), rep.Mapped)

	if *in != "" {
		a := h.Graph()
		rep.Vertices, rep.Edges = a.NumVertices(), a.NumEdges()
		rep.PlainBytes = 8*uint64(rep.Vertices+1) + 4*2*rep.Edges
		if a.Labeled() {
			rep.PlainBytes += 4 * uint64(rep.Vertices)
		}
		if cg := h.Compressed(); cg != nil {
			fp := cg.Footprint()
			rep.CompressedBytes = fp.StreamBytes + fp.IndexBytes + fp.LabelBytes
			rep.BytesPerEdge = fp.BytesPerEdge
			rep.MaxBlockBytes = fp.MaxBlockBytes
			ratio = float64(rep.PlainBytes) / float64(rep.CompressedBytes)
		} else {
			ratio = 1
		}
		if st, err := os.Stat(binPath); err == nil {
			rep.FileBytes = st.Size()
		}
	}

	t0 = time.Now()
	counts, stats, err := scaleRunner(*threads, *shards).CountsCtx(ctx, h.Graph(), queries)
	if err != nil {
		return fmt.Errorf("compressed mine: %w", err)
	}
	rep.MineNS = int64(time.Since(t0))
	rep.Counts = counts
	rep.MineShards = stats.Shards
	// A nil Decode is a plain tier: nothing decoded.
	if d := stats.Decode; d != nil {
		rep.DecodeRows, rep.DecodeBlocks, rep.DecodeElems = d.Rows, d.Blocks, d.Elems
	}
	rep.DecodeElemsPerEdge = float64(rep.DecodeElems) / float64(2*rep.Edges)
	rep.MinePeakRSS = peakRSS()
	if *compare && rep.ComparePlainNS > 0 {
		rep.DecodeOverhead = float64(rep.MineNS) / float64(rep.ComparePlainNS)
	}
	fmt.Fprintf(os.Stderr, "== mined %d shard(s) in %v: triangle count %d, %.1f decoded elems/edge, peak RSS %s\n",
		rep.MineShards, time.Duration(rep.MineNS).Round(time.Millisecond),
		counts[0], rep.DecodeElemsPerEdge, fmtBytes(rep.MinePeakRSS))

	if budget > 0 && rep.MinePeakRSS > budget {
		return fmt.Errorf("mining phase peak RSS %s exceeds -membudget %s",
			fmtBytes(rep.MinePeakRSS), fmtBytes(budget))
	}

	rep.Results = []scaleResult{{
		Name:    "scale-compression",
		Shape:   fmt.Sprintf("%s@%g", *graphName, *scale),
		Speedup: ratio,
	}}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "== wrote %s\n", *out)
	return nil
}

func scaleRunner(threads, shards int) *core.Runner {
	return &core.Runner{Engine: peregrine.New(threads), RunOptions: core.RunOptions{Shards: shards}}
}

// parseBytes parses human byte sizes: plain integers plus KiB/MiB/GiB (or
// K/M/G) suffixes, case-insensitively.
func parseBytes(s string) (uint64, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	mult := uint64(1)
	for _, u := range []struct {
		suffix string
		mult   uint64
	}{
		{"kib", 1 << 10}, {"mib", 1 << 20}, {"gib", 1 << 30},
		{"kb", 1 << 10}, {"mb", 1 << 20}, {"gb", 1 << 30},
		{"k", 1 << 10}, {"m", 1 << 20}, {"g", 1 << 30},
	} {
		if strings.HasSuffix(t, u.suffix) {
			t = strings.TrimSuffix(t, u.suffix)
			mult = u.mult
			break
		}
	}
	n, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("cannot parse byte size %q", s)
	}
	return uint64(n * float64(mult)), nil
}

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// peakRSS reads the process's resident-set high-water mark: VmHWM from
// /proc where available (resettable via clear_refs, so it can be scoped
// to a phase), falling back to getrusage ru_maxrss (process-lifetime
// peak) and then to the current VmRSS; 0 when nothing is available.
func peakRSS() uint64 {
	if hwm := procStatusKB("VmHWM:"); hwm > 0 {
		return hwm
	}
	if peak := rusagePeak(); peak > 0 {
		return peak
	}
	return procStatusKB("VmRSS:")
}

func procStatusKB(key string) uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, key) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// resetPeakRSS clears the VmHWM counter (writing "5" to clear_refs, a
// Linux facility), so phase-2 measurements exclude the conversion
// phase's peak. Best-effort: on kernels without it, MinePeakRSS simply
// includes the conversion high-water mark.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	defer f.Close()
	f.Write([]byte("5"))
}
