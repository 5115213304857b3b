// Package engine defines the contract shared by the four matching engines
// (Peregrine, AutoZero, GraphPi, BigJoin models) plus the instrumented
// statistics the paper's evaluation reports, and the parallel depth-first
// executor every engine runs its plans on (trie.go).
package engine

import (
	"context"
	"errors"
	"time"

	"morphing/internal/graph"
	"morphing/internal/obs"
	"morphing/internal/pattern"
	"morphing/internal/plan"
	"morphing/internal/setops"
)

// ErrInducedUnsupported is returned by engines asked to natively match
// semantics they do not support (vertex-induced patterns on the GraphPi
// and BigJoin models). Callers fall back to a Filter UDF or to Subgraph
// Morphing.
var ErrInducedUnsupported = errors.New("engine: induced semantics not supported natively; use a Filter UDF or Subgraph Morphing")

// Visitor is the per-match consumer Engine.MatchCtx takes: one match per
// call, m[i] the data vertex bound to pattern vertex i. Matches are unique
// per subgraph (symmetry breaking selects one embedding per automorphism
// class). Visitors may be invoked concurrently from different workers;
// worker identifies the caller, an ID in [0, ExecOptions.ThreadCount()) of
// the options the pass runs with (Engine.ExecConfig), and calls with one
// worker ID never overlap. The slice is reused after the call returns —
// copy it to retain it. It reaches the executor as a Sink (EachMatch); a
// consumer that keeps state per worker binds a Sink of its own.
type Visitor func(worker int, m []uint32)

// Engine is a pattern matching engine: a planner over the depth-first
// executor. Implementations differ in matching order, restrictions and
// which induced semantics they support natively — the very differences
// Subgraph Morphing exploits (§3.4) — and every one is a Model. Every
// mining operation takes the caller's context first and follows the
// partial-result contract of ctx.go.
type Engine interface {
	// Name returns the short system name used in figures.
	Name() string
	// SupportsInduced reports whether the engine natively matches
	// patterns with the given semantics. Engines without native
	// vertex-induced support (GraphPi and BigJoin models) need Filter
	// UDFs or Subgraph Morphing for those queries.
	SupportsInduced(iv pattern.Induced) bool
	// CountCtx returns the number of unique matches of p in g.
	CountCtx(ctx context.Context, g graph.Adjacency, p *pattern.Pattern) (uint64, *Stats, error)
	// CountAllCtx counts several patterns, letting engines share work
	// across them (every engine Model mines the set as one merged trie). On
	// interruption the slice holds each pattern's partial count: a merged
	// pass stops every pattern at once, so each has what it counted.
	CountAllCtx(ctx context.Context, g graph.Adjacency, ps []*pattern.Pattern) ([]uint64, *Stats, error)
	// MatchCtx streams every unique match of p to visit.
	MatchCtx(ctx context.Context, g graph.Adjacency, p *pattern.Pattern, visit Visitor) (*Stats, error)
	// PlanPattern builds the exploration plan the engine executes for p
	// on g (g matters to engines that pick orders by cost model), so a
	// caller can mine a whole set as one merged trie (BuildTrie).
	PlanPattern(g graph.Adjacency, p *pattern.Pattern) (*plan.Plan, error)
	// ExecConfig returns the executor options and observer the engine
	// runs its plans with.
	ExecConfig() (ExecOptions, *obs.Observer)
}

// Planner is Engine under its former name, which benchmark/batch.go still
// asserts.
type Planner = Engine

// Stats instruments one engine execution. The counters mirror the
// quantities the paper's profiling (Fig. 4) and evaluation figures report:
// set-operation work, match materialization, UDF invocations, and the
// data-dependent branches that Filter UDFs burn (Fig. 14c-d). Timings are
// only collected when instrumentation is enabled; counters are always on.
//
// Concurrency contract (the single-merger invariant): a Stats value has
// no internal synchronization. Although a pass's windows may run
// concurrently, each executor worker accumulates into its own private
// Stats, and exactly one goroutine merges them with Add after the workers
// have joined. Callers must follow the same discipline: never call Add on
// a Stats that another goroutine may still be writing, and never share
// one *Stats between concurrent executions. To keep a snapshot that
// outlives (or is decoupled from) the producer, use Clone instead of
// aliasing the returned pointer. For counters that must be readable while
// workers are still running (progress, /metrics), engines publish into
// the sharded cells of an obs.Registry instead.
type Stats struct {
	SetOps         uint64 // sorted-set operations executed
	SetElems       uint64 // elements scanned by set operations
	SetMergeOps    uint64 // operations served by the two-pointer merge path
	SetGallopOps   uint64 // operations served by the galloping path
	SetBitsetOps   uint64 // operations served by hub-bitset probes
	SetCountOps    uint64 // count-only operations (no destination writes)
	SetUnrolledOps uint64 // operations served by the branchless unrolled merge
	SetTileOps     uint64 // always 0 (the tile kernel is gone); kept for benchmark/batch.go, which reads it
	SetWritten     uint64 // elements written to destination slices
	Materialized   uint64 // vertices written into emitted matches: a window's prefix slots and tail ids
	UDFCalls       uint64 // user-defined-function invocations: one per sink (window) call
	Branches       uint64 // data-dependent branches (edge probes, filters)
	Matches        uint64 // unique matches found
	TailSteals     uint64 // tail work-stealing range halvings performed

	// Executor passes: TriePasses counts passes of the depth-first
	// executor — one per BacktrackCtx (a one-leaf trie) or MatchTrieCtx call —
	// TriePatterns the plans they covered, TrieSharedLevels the plan levels
	// merging shared (candidate computations saved relative to one-leaf passes).
	TriePasses       uint64
	TriePatterns     uint64
	TrieSharedLevels uint64

	// SetOpTime is candidate-generation time. The trie executor charges it
	// per node execution, not per kernel call: a node with a leaf child
	// clocks its whole execution once (own set, base builds, leaf kernels
	// and collapsed-leaf rank sums of the subtree), any other node only its
	// own set building — one pair of clock reads per parent, none per leaf.
	SetOpTime       time.Duration
	MaterializeTime time.Duration // match assembly and emission time
	UDFTime         time.Duration // time inside user callbacks
	TotalTime       time.Duration // wall-clock for the whole operation

	// Levels holds per-exploration-level selectivity counters, indexed by
	// plan level (0 = root). The ratio Extended/Candidates at each level
	// is the measured selectivity the §5.2 cost model predicts via
	// candidate-set sizes; comparing the two per level is how calibration
	// localizes mispredictions. Candidates is the vertices the level
	// examined: the clipped set it tested one by one for label, window
	// and reuse. A labeled level that reads label rows (plain CSR) never
	// sees the other labels' vertices, so it examines fewer than the same
	// level on a tier that scans whole rows and filters; Extended and the
	// counts are tier-independent. Count-only last levels record their
	// extension count in both fields (the candidate set is never
	// materialized, so the scan width is unknown by design); that count is
	// no work, and Work charges such a level the elements its kernels
	// scanned instead.
	Levels []LevelStats
	// Workers holds each worker's busy time and match yield for the
	// execution, the raw material for load-skew and straggler analysis.
	// Merged executions (Add) accumulate entries by worker ID.
	Workers []WorkerStats

	// TrieNodes holds per-trie-node selectivity, keyed by the pass's
	// trie's dense node IDs (a one-leaf trie's are its levels). Merging
	// (Add) accumulates by node ID, which is only meaningful across
	// executions of the same trie.
	TrieNodes []TrieNodeStats
}

// LevelStats instruments one exploration level: how many candidate
// vertices the level considered and how many survived its filters
// (symmetry window, label, already-bound) to be bound or counted.
type LevelStats struct {
	Candidates uint64 // vertices the level examined (see Stats.Levels)
	Extended   uint64 // candidates bound (or counted) at this level
}

// Selectivity returns Extended/Candidates, the level's measured
// survival fraction (0 when nothing was considered).
func (l LevelStats) Selectivity() float64 {
	if l.Candidates == 0 {
		return 0
	}
	return float64(l.Extended) / float64(l.Candidates)
}

// TrieNodeStats instruments one node of a merged plan trie: how many
// partial embeddings reached it (Enters), how many candidate vertices its
// shared computation produced, and how many survived its filters. A node
// with a high Patterns fan-in (see plan.TrieNode) and high Enters is
// where one-pass execution amortizes the most work.
type TrieNodeStats struct {
	Node       int    `json:"node"`
	Depth      int    `json:"depth"`
	Patterns   int    `json:"patterns"`
	Enters     uint64 `json:"enters"`
	Candidates uint64 `json:"candidates"`
	Extended   uint64 `json:"extended"`
	Leaf       bool   `json:"leaf,omitempty"` // binds nothing: its candidates are settled or counted, none examined one by one
}

// Selectivity returns Extended/Candidates for the node (0 when nothing
// was considered).
func (t TrieNodeStats) Selectivity() float64 {
	if t.Candidates == 0 {
		return 0
	}
	return float64(t.Extended) / float64(t.Candidates)
}

// WorkerStats is one worker's contribution to an execution: its busy
// wall-clock inside the work loop and the matches it found. A worker
// whose Time far exceeds its siblings' is a straggler (typically stuck
// under a hub vertex after the shared block cursor ran out).
type WorkerStats struct {
	Worker  int           `json:"worker"`
	Time    time.Duration `json:"time_ns"`
	Matches uint64        `json:"matches"`
}

// Work is the execution's exact work, in elements scanned: what its
// kernels, base builds, marks and collapsed leaves scanned (SetElems), plus
// depth + 2 comparisons for every candidate a node that binds examined —
// against the bound vertices, the windows, and the binding itself. A leaf
// adds only the elements its kernels scanned, never its count: a count-only
// leaf records its extension count as Candidates (Levels), which it never
// looked at. It is the unit costmodel.DefaultWeights are fitted in and the
// one Algorithm 1's decisions are judged in.
func (s *Stats) Work() uint64 {
	work := s.SetElems
	for _, n := range s.TrieNodes {
		if !n.Leaf {
			work += n.Candidates * uint64(n.Depth+2)
		}
	}
	return work
}

// Clone returns an independent copy of s, for callers that want to
// retain a snapshot without aliasing a struct the producer may keep
// reusing (see the single-merger invariant above).
func (s *Stats) Clone() *Stats {
	if s == nil {
		return nil
	}
	cp := *s
	cp.Levels = append([]LevelStats(nil), s.Levels...)
	cp.Workers = append([]WorkerStats(nil), s.Workers...)
	cp.TrieNodes = append([]TrieNodeStats(nil), s.TrieNodes...)
	return &cp
}

// Add merges other into s. It is not safe to call while any worker may
// still be writing to either side; merge only after execution completes,
// from a single goroutine.
func (s *Stats) Add(other *Stats) {
	s.SetOps += other.SetOps
	s.SetElems += other.SetElems
	s.SetMergeOps += other.SetMergeOps
	s.SetGallopOps += other.SetGallopOps
	s.SetBitsetOps += other.SetBitsetOps
	s.SetCountOps += other.SetCountOps
	s.SetUnrolledOps += other.SetUnrolledOps
	s.SetWritten += other.SetWritten
	s.Materialized += other.Materialized
	s.UDFCalls += other.UDFCalls
	s.Branches += other.Branches
	s.Matches += other.Matches
	s.TailSteals += other.TailSteals
	s.TriePasses += other.TriePasses
	s.TriePatterns += other.TriePatterns
	s.TrieSharedLevels += other.TrieSharedLevels
	s.SetOpTime += other.SetOpTime
	s.MaterializeTime += other.MaterializeTime
	s.UDFTime += other.UDFTime
	s.TotalTime += other.TotalTime
	for i, l := range other.Levels {
		s.AddLevel(i, l.Candidates, l.Extended)
	}
	for _, w := range other.Workers {
		s.AddWorker(w)
	}
	for _, t := range other.TrieNodes {
		s.AddTrieNode(t)
	}
}

// AddTrieNode accumulates one trie node's selectivity counters, merging
// by node ID (meaningful only across executions of the same merged trie).
func (s *Stats) AddTrieNode(t TrieNodeStats) {
	for i := range s.TrieNodes {
		if s.TrieNodes[i].Node == t.Node {
			s.TrieNodes[i].Enters += t.Enters
			s.TrieNodes[i].Candidates += t.Candidates
			s.TrieNodes[i].Extended += t.Extended
			return
		}
	}
	s.TrieNodes = append(s.TrieNodes, t)
}

// AddLevel accumulates level-i selectivity counters, growing Levels as
// needed. Workers call it once per execution from their private Stats;
// the merge side inherits it through Add.
func (s *Stats) AddLevel(i int, candidates, extended uint64) {
	for len(s.Levels) <= i {
		s.Levels = append(s.Levels, LevelStats{})
	}
	s.Levels[i].Candidates += candidates
	s.Levels[i].Extended += extended
}

// AddWorker accumulates one worker's contribution, merging by worker ID
// so repeated executions (shards of one run) sum each worker's totals.
func (s *Stats) AddWorker(w WorkerStats) {
	for i := range s.Workers {
		if s.Workers[i].Worker == w.Worker {
			s.Workers[i].Time += w.Time
			s.Workers[i].Matches += w.Matches
			return
		}
	}
	s.Workers = append(s.Workers, w)
}

// AddSetops folds a worker's kernel-level counters (setops.Stats) into s.
// Like Add, it must only run after the producing worker has stopped.
func (s *Stats) AddSetops(o setops.Stats) {
	s.SetOps += o.Ops
	s.SetElems += o.Elems
	s.SetMergeOps += o.MergeOps
	s.SetGallopOps += o.GallopOps
	s.SetBitsetOps += o.BitsetOps
	s.SetCountOps += o.CountOps
	s.SetUnrolledOps += o.UnrolledOps
	s.SetWritten += o.Written
}
