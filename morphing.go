// Package morphing is a from-scratch Go implementation of Subgraph
// Morphing (Jamshidi, Xu, Vora — "Accelerating Graph Mining Systems with
// Subgraph Morphing", EuroSys 2023): a generic technique that rewrites
// graph-mining queries into alternative pattern sets that are cheaper to
// mine, then converts the results back with guaranteed correctness.
//
// The package bundles everything the paper's evaluation needs: four
// matching-engine models (Peregrine, AutoMine/GraphZero, GraphPi,
// BigJoin), the morphing core (S-DAG, greedy alternative selection, cost
// models, batched and on-the-fly result conversion), the mining
// applications (motif counting, subgraph counting, frequent subgraph
// mining, subgraph enumeration), and synthetic stand-ins for the
// evaluation datasets.
//
// Quick start:
//
//	g, _ := morphing.GenerateDataset("MI", 0.01)
//	eng, _ := morphing.NewEngine("peregrine", 0)
//	res, _ := morphing.CountMotifs(g, 4, eng, morphing.Options{Morph: true})
//	for i, p := range res.Patterns {
//		fmt.Println(p, res.Counts[i])
//	}
//
// Spellings: this package's exported functions come as F and FCtx — F is
// FCtx under context.Background(), which this package alone supplies.
// Everything below it exists once, context first: the Engine interface
// (CountCtx, CountAllCtx, MatchCtx), Runner's pipelines (CountsCtx,
// MNITablesCtx) and the internal app packages.
package morphing

import (
	"context"
	"fmt"
	"io"

	"morphing/internal/apps/cf"
	"morphing/internal/apps/fsm"
	"morphing/internal/apps/mc"
	"morphing/internal/apps/sc"
	"morphing/internal/apps/se"
	"morphing/internal/canon"
	"morphing/internal/core"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/engines"
	"morphing/internal/graph"
	"morphing/internal/obs"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// Core building blocks, re-exported so users never import internal
// packages directly.
type (
	// Pattern is a small query graph with edge- or vertex-induced
	// matching semantics.
	Pattern = pattern.Pattern
	// Graph is an immutable CSR data graph.
	Graph = graph.Graph
	// Engine is a pattern matching engine (one of the four system
	// models). Its mining operations take a context first.
	Engine = engine.Engine
	// Stats instruments an engine execution (set operations, UDF calls,
	// branches, phase timings).
	Stats = engine.Stats
	// Runner is the morphing pipeline: transformation, mining,
	// conversion. Use it directly for advanced control; the app helpers
	// below cover the paper's workloads.
	Runner = core.Runner
	// RunStats breaks down where a morphed execution spent time.
	RunStats = core.RunStats
	// Selection is a chosen alternative pattern set.
	Selection = core.Selection
	// MotifResult is a motif-counting census.
	MotifResult = mc.Result
	// FSMOptions configures frequent subgraph mining.
	FSMOptions = fsm.Options
	// FrequentPattern is an FSM output with its MNI support.
	FrequentPattern = fsm.Frequent
	// EnumResult summarizes a subgraph enumeration run.
	EnumResult = se.Result
	// EnumOptions configures subgraph enumeration.
	EnumOptions = se.Options
	// Weights is the SE benchmark's normal-distribution vertex weighting.
	Weights = se.Weights
	// DatasetRecipe describes a synthetic evaluation graph.
	DatasetRecipe = dataset.Recipe
	// Tracer records phase spans (transform, select, mine/<pattern>,
	// convert, aggregate) and exports them as a Chrome trace_event file.
	Tracer = obs.Tracer
	// MetricsSnapshot is a merged point-in-time view of every counter,
	// gauge and histogram in the process-wide metrics registry.
	MetricsSnapshot = obs.Snapshot
)

// Options toggles Subgraph Morphing for the counting applications.
type Options struct {
	// Morph enables pattern transformation; false measures the baseline
	// system.
	Morph bool
}

// Typed interruption errors, re-exported from the engine layer. Runs
// interrupted by cancellation or a deadline return these (use errors.Is,
// or the context vocabulary — they wrap context.Canceled and
// context.DeadlineExceeded); counts and stats returned alongside are
// valid partial results.
var (
	ErrCanceled         = engine.ErrCanceled
	ErrDeadlineExceeded = engine.ErrDeadlineExceeded
)

// Interrupted reports whether err is a typed interruption — cooperative
// cancellation, deadline expiry, or a contained visitor/UDF panic —
// meaning the results returned alongside it are valid partials.
func Interrupted(err error) bool { return engine.Interrupted(err) }

// NewEngine constructs one of the four engine models by name
// ("peregrine", "autozero", "graphpi", "bigjoin"; case-insensitive).
// threads <= 0 uses GOMAXPROCS.
func NewEngine(name string, threads int) (Engine, error) {
	eng, err := engines.New(name, threads, nil)
	if err != nil {
		return nil, fmt.Errorf("morphing: %w", err)
	}
	return eng, nil
}

// EngineNames lists the available engine models.
func EngineNames() []string { return engines.Names() }

// LoadGraph reads an edge-list graph (SNAP-style "u v" lines, optional
// "v id label" directives, '#' comments).
func LoadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// NewGraph builds a graph from an explicit edge list; labels may be nil.
func NewGraph(n int, edges [][2]uint32, labels []int32) (*Graph, error) {
	return graph.FromEdges(n, edges, labels)
}

// GenerateDataset materializes a synthetic stand-in for one of the
// paper's evaluation graphs (MI, MG, PR, OK, FR; see Fig. 11b) at the
// given scale factor (1.0 = published size; keep it well below that on a
// laptop).
func GenerateDataset(name string, scale float64) (*Graph, error) {
	r, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	return r.Scaled(scale).Generate()
}

// Datasets lists the five evaluation recipes.
func Datasets() []DatasetRecipe { return dataset.All() }

// PartitionGraph splits g into k parts, dropping cross-partition edges —
// the workload-reduction step used for 7-vertex patterns (§7.4).
func PartitionGraph(g *Graph, k int) ([]*Graph, error) { return graph.Partition(g, k) }

// NewPattern builds a pattern over n vertices from an edge list.
// Options: pattern.WithLabels, pattern.WithInduced — use the typed
// helpers VertexInduced/ParsePattern for common cases.
func NewPattern(n int, edges [][2]int) (*Pattern, error) { return pattern.New(n, edges) }

// ParsePattern decodes the textual pattern format, e.g.
// "n=4;e=0-1,1-2,2-3,3-0;v" for the vertex-induced 4-cycle.
func ParsePattern(s string) (*Pattern, error) { return pattern.Parse(s) }

// PatternByName returns a named pattern from the paper's figures
// (triangle, 4-star, tailed-triangle, 4-cycle, chordal-4-cycle, 4-clique,
// p1..p10).
func PatternByName(name string) (*Pattern, error) { return pattern.ByName(name) }

// MotifPatterns returns one representative of every connected unlabeled
// pattern on n vertices (2..6), edge-induced.
func MotifPatterns(n int) ([]*Pattern, error) { return canon.AllConnectedPatterns(n) }

// CountMotifs counts all vertex-induced motifs of the given size
// (3..5) — the Fig. 12 workload.
func CountMotifs(g *Graph, size int, eng Engine, opts Options) (*MotifResult, error) {
	return mc.CountCtx(context.Background(), g, size, eng, opts.Morph)
}

// CountMotifsCtx is CountMotifs with cooperative cancellation: the run
// aborts at the next work-block boundary after ctx is done, returning a
// partial Result alongside ErrCanceled/ErrDeadlineExceeded.
func CountMotifsCtx(ctx context.Context, g *Graph, size int, eng Engine, opts Options) (*MotifResult, error) {
	return mc.CountCtx(ctx, g, size, eng, opts.Morph)
}

// CountSubgraphs counts the matches of each query pattern — the Fig. 13a
// workload.
func CountSubgraphs(g *Graph, queries []*Pattern, eng Engine, opts Options) ([]uint64, *RunStats, error) {
	return sc.CountCtx(context.Background(), g, queries, eng, opts.Morph)
}

// CountSubgraphsCtx is CountSubgraphs under a context; on interruption
// the RunStats carries per-alternative partial counts (RunStats.Partial).
func CountSubgraphsCtx(ctx context.Context, g *Graph, queries []*Pattern, eng Engine, opts Options) ([]uint64, *RunStats, error) {
	return sc.CountCtx(ctx, g, queries, eng, opts.Morph)
}

// MineFrequent runs level-wise frequent subgraph mining with MNI support —
// the Fig. 13c workload.
func MineFrequent(g *Graph, eng Engine, opts FSMOptions) ([]FrequentPattern, *fsm.Stats, error) {
	return fsm.MineCtx(context.Background(), g, eng, opts)
}

// MineFrequentCtx is MineFrequent under a context; on interruption the
// patterns confirmed by fully completed levels are returned with the
// typed error.
func MineFrequentCtx(ctx context.Context, g *Graph, eng Engine, opts FSMOptions) ([]FrequentPattern, *fsm.Stats, error) {
	return fsm.MineCtx(ctx, g, eng, opts)
}

// EnumerateSubgraphs streams filtered matches of edge-induced queries —
// the Fig. 15a workload with on-the-fly conversion.
func EnumerateSubgraphs(g *Graph, eng Engine, queries []*Pattern, filter func(m []uint32) bool, onMatch func(query int, m []uint32), opts EnumOptions) (*EnumResult, error) {
	return se.EnumerateCtx(context.Background(), g, eng, queries, filter, onMatch, opts)
}

// EnumerateSubgraphsCtx is EnumerateSubgraphs under a context; on
// interruption the partial tallies accumulated so far are returned with
// the typed error.
func EnumerateSubgraphsCtx(ctx context.Context, g *Graph, eng Engine, queries []*Pattern, filter func(m []uint32) bool, onMatch func(query int, m []uint32), opts EnumOptions) (*EnumResult, error) {
	return se.EnumerateCtx(ctx, g, eng, queries, filter, onMatch, opts)
}

// NewWeights draws the SE benchmark's per-vertex weights ~ N(mean, std).
func NewWeights(g *Graph, mean, std float64, seed int64) *Weights {
	return se.NewWeights(g, mean, std, seed)
}

// CountCliques returns the number of k-cliques in g. Cliques are the one
// pattern family morphing never rewrites (they are both variants at once).
func CountCliques(g *Graph, k int, eng Engine) (uint64, *Stats, error) {
	return cf.CountCtx(context.Background(), g, k, eng)
}

// CountCliquesCtx is CountCliques under a context; on interruption the
// partial count is returned with the typed error.
func CountCliquesCtx(ctx context.Context, g *Graph, k int, eng Engine) (uint64, *Stats, error) {
	return cf.CountCtx(ctx, g, k, eng)
}

// CliqueCensus counts cliques of every size from 2 up to maxK, stopping at
// the first absent size.
func CliqueCensus(g *Graph, maxK int, eng Engine) (map[int]uint64, error) {
	return cf.CensusCtx(context.Background(), g, maxK, eng)
}

// MaxCliqueSize finds the largest clique size (up to maxK) using
// early-terminating existence probes on the Peregrine model.
func MaxCliqueSize(g *Graph, maxK int) (int, error) {
	return cf.MaxCliqueSizeCtx(context.Background(), g, maxK, peregrine.New(0))
}

// SortGraphByDegree relabels vertices in ascending degree order, which
// sharpens ID-based symmetry-breaking around hubs (see the `ablation`
// bench experiment). Returns the relabeled graph and the old-to-new map.
func SortGraphByDegree(g *Graph) (*Graph, []uint32) {
	return graph.SortByDegree(g)
}

// NewTracer returns an empty span recorder. Install it with
// EnableTracing to capture the pipeline's phase spans.
func NewTracer() *Tracer { return obs.NewTracer() }

// EnableTracing installs t as the process-wide tracer: every Runner,
// engine and bench experiment without an explicit observability sink
// records its phase spans there. Pass nil to disable tracing again.
func EnableTracing(t *Tracer) { obs.SetDefaultTracer(t) }

// Metrics returns a merged snapshot of the process-wide metrics
// registry: engine counters (matches, set operations, branches, UDF
// calls), runner phase timings, and the mine-duration histogram.
func Metrics() MetricsSnapshot { return obs.DefaultRegistry().Snapshot() }

// ServeDebug exposes the observability endpoint — /vars (JSON metrics),
// /metrics (Prometheus text) and /debug/pprof — on addr in a background
// goroutine, returning the bound address (useful with ":0"). Close the
// returned Closer to stop serving.
func ServeDebug(addr string) (string, io.Closer, error) {
	ln, err := obs.Serve(addr, obs.DefaultRegistry())
	if err != nil {
		return "", nil, err
	}
	return ln.Addr().String(), ln, nil
}

// MorphingEquations renders the Fig. 7 conversion identities for a
// pattern: the edge-induced expansion and the vertex-induced
// rearrangement, as human-readable strings.
func MorphingEquations(p *Pattern) (edgeInduced, vertexInduced string, err error) {
	d, err := core.BuildSDAG([]*Pattern{p})
	if err != nil {
		return "", "", err
	}
	eqE, err := core.EdgeInducedEquation(d, p)
	if err != nil {
		return "", "", err
	}
	eqV, err := core.VertexInducedEquation(d, p)
	if err != nil {
		return "", "", err
	}
	return eqE.String(), eqV.String(), nil
}
