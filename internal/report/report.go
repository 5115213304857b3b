// Package report turns a pipeline execution's RunStats into a
// self-contained, serializable run report: the EXPLAIN side (which
// alternative sets Algorithm 1 considered, what the cost model charged
// them, and what won), the calibration side (predicted vs. measured
// matches and cost per executed pattern), and the execution side
// (per-level selectivity, per-worker skew). RunReport is the one
// serialized form of a run: `morphcli explain`, `morphcli count -stats
// json`, the -report JSON flags and morphd's "report" all write it.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"morphing/internal/canon"
	"morphing/internal/core"
	"morphing/internal/engine"
	"morphing/internal/obs"
	"morphing/internal/pattern"
)

// Schema identifies the report format; bump on incompatible changes.
const Schema = "morphing-run-report/v1"

// QueryReport is one input query and what transformation did to it.
type QueryReport struct {
	Pattern string `json:"pattern"`
	Name    string `json:"name,omitempty"`
	Morphed bool   `json:"morphed"`
	// Count is the query's answer, present only when the caller held the
	// counts (SetCounts): absent on MNI runs, interrupted runs and morphd's
	// reports, whose answers travel beside them.
	Count *uint64 `json:"count,omitempty"`
}

// PatternReport is the calibration record for one executed alternative:
// the cost model's predictions next to the engine's measurements. EstCost
// is the pattern's marginal price inside the mined set (the trie levels no
// other pattern of the set occupies; the set's total is the report's
// CostAfter). It carries no wall time: the set is mined in one merged
// pass, in which a single pattern's share of the clock has no meaning.
type PatternReport struct {
	Pattern          string  `json:"pattern"`
	Name             string  `json:"name,omitempty"`
	Variant          string  `json:"variant"`
	EstCost          float64 `json:"est_cost"`
	EstMatches       float64 `json:"est_matches"`
	Matches          uint64  `json:"matches"`
	CalibrationRatio float64 `json:"calibration_ratio"`
}

// PartialReport is one alternative pattern's mined progress at the moment
// a run was interrupted: the same marked partial counts the CLI prints.
// Query-level results cannot be soundly converted from an incomplete
// mined set, so interrupted runs surface these raw per-alternative counts
// instead of query results.
type PartialReport struct {
	Pattern string `json:"pattern"`
	Name    string `json:"name,omitempty"`
	Count   uint64 `json:"count"`
}

// LevelReport is one exploration level's measured selectivity.
type LevelReport struct {
	Level       int     `json:"level"`
	Candidates  uint64  `json:"candidates"`
	Extended    uint64  `json:"extended"`
	Selectivity float64 `json:"selectivity"`
}

// TrieNodeReport is one merged-trie node's measured selectivity: where
// the one-pass executor's shared candidate computations paid off.
type TrieNodeReport struct {
	Node        int     `json:"node"`
	Depth       int     `json:"depth"`
	Patterns    int     `json:"patterns"`
	Enters      uint64  `json:"enters"`
	Candidates  uint64  `json:"candidates"`
	Extended    uint64  `json:"extended"`
	Selectivity float64 `json:"selectivity"`
}

// MiningReport summarizes the matching phase across all alternatives.
type MiningReport struct {
	Matches     uint64               `json:"matches"`
	SetOps      uint64               `json:"set_ops"`
	SetElems    uint64               `json:"set_elems"`
	TotalTimeNS int64                `json:"total_time_ns"`
	Levels      []LevelReport        `json:"levels,omitempty"`
	Workers     []engine.WorkerStats `json:"workers,omitempty"`
	// Skew is max worker busy time over the mean (1 = perfectly
	// balanced); 0 when no worker telemetry was recorded.
	Skew float64 `json:"skew,omitempty"`
	// TailSteals counts tail work-stealing block splits (idle workers
	// halving a straggler's remaining level-0 range).
	TailSteals uint64 `json:"tail_steals,omitempty"`
	// Trie execution telemetry, present when the run mined its winner set
	// in one pass of the merged plan trie: plan levels the trie shared, and
	// per-trie-node selectivity.
	TrieSharedLevels uint64           `json:"trie_shared_levels,omitempty"`
	TrieNodes        []TrieNodeReport `json:"trie_nodes,omitempty"`
}

// StorageReport attributes storage-tier work to one run: how much the
// compressed tier decoded for this query, how the per-view probe-block
// cache fared, and how much of an mmap backing was page-cache resident
// at run end.
type StorageReport struct {
	DecodeRows   uint64 `json:"decode_rows"`
	DecodeBlocks uint64 `json:"decode_blocks"`
	DecodeElems  uint64 `json:"decode_elems"`
	// DecodeBytes is the expanded size of the decoded elements.
	DecodeBytes uint64 `json:"decode_bytes"`
	ProbeHits   uint64 `json:"probe_hits"`
	ProbeMisses uint64 `json:"probe_misses"`
	// Mmap residency (mincore sample at run end); present only when the
	// tier is mmap-backed on a platform that can sample.
	MappedBytes      uint64 `json:"mapped_bytes,omitempty"`
	ResidentBytes    uint64 `json:"resident_bytes,omitempty"`
	ResidencySampled bool   `json:"residency_sampled,omitempty"`
}

// RunReport is the full serializable record of one pipeline execution.
type RunReport struct {
	Schema        string `json:"schema"`
	Engine        string `json:"engine"`
	GraphVertices int    `json:"graph_vertices"`
	GraphEdges    uint64 `json:"graph_edges"`
	Phase         string `json:"phase"`

	// RunID and Label identify the execution's observability run scope:
	// every span, metric delta and query-log line the run emitted
	// carries RunID.
	RunID string `json:"run_id,omitempty"`
	Label string `json:"label,omitempty"`
	// FlightDump is the flight-recorder bundle directory when the run
	// ended anomalously and a dump was written.
	FlightDump string `json:"flight_dump,omitempty"`
	// QueryLog embeds the run's retained lifecycle events (the same
	// records the JSONL query log carries), oldest first.
	QueryLog []obs.Event `json:"query_log,omitempty"`

	Policy  string        `json:"policy,omitempty"`
	Queries []QueryReport `json:"queries"`
	// Mined is the winner set: the alternative patterns the run mined
	// (Selection.Mine), in mining order.
	Mined      []string `json:"mined"`
	CostBefore float64  `json:"cost_before"`
	CostAfter  float64  `json:"cost_after"`

	TransformNS int64 `json:"transform_ns"`
	ConvertNS   int64 `json:"convert_ns"`

	// Trie records the multi-pattern trie routing decision: whether the
	// winner set was mined in one shared-prefix pass, and why (or why not).
	Trie *core.TrieDecision `json:"trie,omitempty"`

	// Interrupted marks a run that ended on a typed interruption
	// (cancel, deadline, contained panic); Partial then carries the
	// per-alternative progress mined before the abort.
	Interrupted bool            `json:"interrupted,omitempty"`
	Partial     []PartialReport `json:"partial,omitempty"`

	// CalibrationRatio is the mean per-pattern calibration ratio
	// (predicted/measured matches, add-one smoothed); 0 when the run
	// carried no calibration records.
	CalibrationRatio float64 `json:"calibration_ratio,omitempty"`

	Mining   *MiningReport   `json:"mining,omitempty"`
	Patterns []PatternReport `json:"patterns,omitempty"`

	// Storage is the run's storage-tier attribution: decode work and
	// probe-block cache activity by this run only (not process-cumulative
	// totals), plus mmap page residency when the tier supports sampling.
	Storage *StorageReport `json:"storage,omitempty"`

	// Selection is the Algorithm 1 trace (explain mode only).
	Selection *core.SelectionExplain `json:"selection,omitempty"`

	// Registry optionally embeds a metrics snapshot taken after the run
	// (the -report flags attach the observer's registry here).
	Registry *obs.Snapshot `json:"registry,omitempty"`
}

// FromRunStats builds a RunReport from a completed (or interrupted)
// execution's RunStats. The report copies everything it needs, so it
// remains valid after the RunStats producer moves on.
func FromRunStats(st *core.RunStats) *RunReport {
	if st == nil {
		return nil
	}
	r := &RunReport{
		Schema:        Schema,
		Engine:        st.Engine,
		GraphVertices: st.GraphVertices,
		GraphEdges:    st.GraphEdges,
		Phase:         st.Phase,
		RunID:         st.RunID,
		Label:         st.RunLabel,
		FlightDump:    st.FlightDump,
		TransformNS:   int64(st.Transform),
		ConvertNS:     int64(st.Convert),
	}
	r.QueryLog = append(r.QueryLog, st.Events...)
	if sel := st.Selection; sel != nil {
		r.Policy = sel.Policy.String()
		r.CostBefore = sel.CostBefore
		r.CostAfter = sel.CostAfter
		r.Selection = sel.Explain
		for _, q := range sel.Queries {
			r.Queries = append(r.Queries, QueryReport{
				Pattern: q.Pattern.String(),
				Name:    FriendlyName(q.Pattern),
				Morphed: q.Morphed,
			})
		}
		for _, c := range sel.Mine {
			r.Mined = append(r.Mined, c.Pattern.String())
		}
	}
	for _, pc := range st.Partial {
		r.Partial = append(r.Partial, PartialReport{
			Pattern: pc.Pattern.String(),
			Name:    FriendlyName(pc.Pattern),
			Count:   pc.Count,
		})
	}
	r.Interrupted = st.Phase != "" && st.Phase != core.PhaseDone
	r.CalibrationRatio = st.MeanCalibrationRatio()
	for _, pp := range st.PerPattern {
		r.Patterns = append(r.Patterns, PatternReport{
			Pattern:          pp.Pattern,
			Name:             friendlyNameString(pp.Pattern),
			Variant:          pp.Variant,
			EstCost:          pp.EstCost,
			EstMatches:       pp.EstMatches,
			Matches:          pp.Matches,
			CalibrationRatio: pp.CalibrationRatio(),
		})
	}
	if td := st.Trie; td != nil {
		cp := *td
		r.Trie = &cp
	}
	if st.Decode != nil || st.Residency != nil {
		sr := &StorageReport{}
		if d := st.Decode; d != nil {
			sr.DecodeRows = d.Rows
			sr.DecodeBlocks = d.Blocks
			sr.DecodeElems = d.Elems
			sr.DecodeBytes = d.DecodedBytes()
			sr.ProbeHits = d.ProbeHits
			sr.ProbeMisses = d.ProbeMisses
		}
		if rs := st.Residency; rs != nil {
			sr.MappedBytes = rs.MappedBytes
			sr.ResidentBytes = rs.ResidentBytes
			sr.ResidencySampled = rs.Sampled
		}
		r.Storage = sr
	}
	if m := st.Mining; m != nil {
		mr := &MiningReport{
			Matches:     m.Matches,
			SetOps:      m.SetOps,
			SetElems:    m.SetElems,
			TotalTimeNS: int64(m.TotalTime),
			TailSteals:  m.TailSteals,
		}
		for i, l := range m.Levels {
			mr.Levels = append(mr.Levels, LevelReport{
				Level: i, Candidates: l.Candidates, Extended: l.Extended,
				Selectivity: l.Selectivity(),
			})
		}
		mr.Workers = append(mr.Workers, m.Workers...)
		sort.Slice(mr.Workers, func(i, j int) bool { return mr.Workers[i].Worker < mr.Workers[j].Worker })
		mr.Skew = workerSkew(mr.Workers)
		// Node IDs name the nodes of one trie: the table is the run's only
		// when the run mined its winner set as one (a loop over patterns
		// sums unrelated one-leaf tries by ID).
		if st.Trie != nil && st.Trie.Used {
			mr.TrieSharedLevels = m.TrieSharedLevels
			for _, tn := range m.TrieNodes {
				mr.TrieNodes = append(mr.TrieNodes, TrieNodeReport{
					Node: tn.Node, Depth: tn.Depth, Patterns: tn.Patterns,
					Enters: tn.Enters, Candidates: tn.Candidates, Extended: tn.Extended,
					Selectivity: tn.Selectivity(),
				})
			}
			sort.Slice(mr.TrieNodes, func(i, j int) bool { return mr.TrieNodes[i].Node < mr.TrieNodes[j].Node })
		}
		r.Mining = mr
	}
	return r
}

// SetCounts records each query's answer, counts[i] for Queries[i]: the
// result a counting run returned beside its RunStats.
func (r *RunReport) SetCounts(counts []uint64) {
	for i := range r.Queries[:min(len(r.Queries), len(counts))] {
		c := counts[i]
		r.Queries[i].Count = &c
	}
}

// workerSkew returns max busy time over mean busy time (0 without data).
func workerSkew(ws []engine.WorkerStats) float64 {
	if len(ws) == 0 {
		return 0
	}
	var sum, max time.Duration
	for _, w := range ws {
		sum += w.Time
		if w.Time > max {
			max = w.Time
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(ws))
	return float64(max) / mean
}

// WriteJSON writes the report as indented JSON.
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the report for humans: the EXPLAIN view of the plan
// (queries, winner, and — when the trace is present — the scored
// candidate alternative sets, rejected ones included), followed by
// calibration and execution telemetry. Lines carrying wall-clock are
// emitted only when timings are nonzero, so golden tests can normalize
// them away.
func (r *RunReport) WriteText(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	p("== run report (%s) ==\n", r.Schema)
	if r.RunID != "" {
		p("run: %s", r.RunID)
		if r.Label != "" {
			p("  label: %s", r.Label)
		}
		p("\n")
	}
	p("engine: %s  graph: %d vertices, %d edges  phase: %s\n",
		r.Engine, r.GraphVertices, r.GraphEdges, r.Phase)
	if r.FlightDump != "" {
		p("flight dump: %s\n", r.FlightDump)
	}
	if r.Policy != "" {
		p("policy: %s\n", r.Policy)
	}
	p("\n-- queries --\n")
	for _, q := range r.Queries {
		how := "mined as-is"
		if q.Morphed {
			how = "morphed"
		}
		p("  %-28s %s (%s)\n", nameOr(q.Name, ""), q.Pattern, how)
	}
	p("modeled cost: %.6g -> %.6g", r.CostBefore, r.CostAfter)
	if r.CostBefore > 0 {
		p("  (x%.3g)", r.CostBefore/r.CostAfter)
	}
	p("\n")

	if r.Selection != nil {
		p("\n-- alternative sets considered (Algorithm 1) --\n")
		for _, cm := range r.Selection.Candidates {
			verdict := "rejected"
			if cm.Accepted {
				verdict = "ACCEPTED"
			}
			p("  [%s] parent %s: replace cost %.6g with cost %.6g\n",
				verdict, cm.Parent, cm.CostOut, cm.CostIn)
			for _, s := range cm.Removed {
				p("    - %s %s (cost alone %.6g)\n", s.Pattern, s.Variant, s.Cost)
			}
			for _, s := range cm.Added {
				switch {
				case s.Free:
					p("    + %s %s (already scheduled: free)\n", s.Pattern, s.Variant)
				case s.Shared > 0:
					p("    + %s %s (marginal cost %.6g, %d levels shared)\n", s.Pattern, s.Variant, s.Cost, s.Shared)
				default:
					p("    + %s %s (marginal cost %.6g)\n", s.Pattern, s.Variant, s.Cost)
				}
			}
		}
		if r.Selection.Truncated > 0 {
			p("  ... %d more rejected candidates truncated\n", r.Selection.Truncated)
		}
		for _, s := range r.Selection.Unmorphable {
			p("  [refused] %s: too many superpatterns to morph through, mined as it is\n", s)
		}
		if f := r.Selection.CostFault; f != "" {
			p("  [fault] %s: no morph decided, the queries are mined as they are\n", f)
		}
	}

	if td := r.Trie; td != nil {
		route := "per pattern"
		if td.Used {
			route = "one pass (shared-prefix trie)"
		}
		p("\n-- multi-pattern execution --\n")
		p("  %s\n", route)
		p("    %s\n", td.Reason)
	}

	if r.Interrupted {
		p("\n*** RUN INTERRUPTED — results below are PARTIAL (stopped in phase %q) ***\n", r.Phase)
		for _, pc := range r.Partial {
			p("  %-28s %s  %12d  [partial, mined alternative]\n",
				nameOr(pc.Name, ""), pc.Pattern, pc.Count)
		}
	}

	if len(r.Patterns) > 0 {
		p("\n-- mined patterns (winner set, modeled cost %.6g as one trie) + calibration --\n", r.CostAfter)
		for _, pr := range r.Patterns {
			p("  %-28s %s [%s]\n", nameOr(pr.Name, ""), pr.Pattern, pr.Variant)
			p("    marginal cost %.6g, est matches %.6g; measured matches %d (ratio %.3g)\n",
				pr.EstCost, pr.EstMatches, pr.Matches, pr.CalibrationRatio)
		}
	}

	if m := r.Mining; m != nil {
		p("\n-- execution --\n")
		p("  matches: %d  set ops: %d (%d elems scanned)\n", m.Matches, m.SetOps, m.SetElems)
		if len(m.Levels) > 0 {
			p("  per-level selectivity:\n")
			for _, l := range m.Levels {
				p("    level %d: %d candidates -> %d extended (%.4g)\n",
					l.Level, l.Candidates, l.Extended, l.Selectivity)
			}
		}
		if len(m.TrieNodes) > 0 {
			p("  per-trie-node selectivity (%d plan levels shared):\n", m.TrieSharedLevels)
			for _, tn := range m.TrieNodes {
				p("    node %d depth %d [%d pattern(s)]: %d enters, %d candidates -> %d extended (%.4g)\n",
					tn.Node, tn.Depth, tn.Patterns, tn.Enters, tn.Candidates, tn.Extended, tn.Selectivity)
			}
		}
		if m.TailSteals > 0 {
			p("  tail steals: %d\n", m.TailSteals)
		}
		if len(m.Workers) > 0 {
			p("  workers: %d", len(m.Workers))
			if m.Skew > 0 {
				p("  skew (max/mean busy): %.3g", m.Skew)
			}
			p("\n")
			for _, ws := range m.Workers {
				if ws.Time > 0 {
					p("    worker %d: %v busy, %d matches\n", ws.Worker, ws.Time, ws.Matches)
				} else {
					p("    worker %d: %d matches\n", ws.Worker, ws.Matches)
				}
			}
		}
		if m.TotalTimeNS > 0 {
			p("  mining wall-clock (summed over workers' executions): %v\n", time.Duration(m.TotalTimeNS))
		}
	}
	if s := r.Storage; s != nil {
		p("\n-- storage --\n")
		p("  decoded: %d rows, %d blocks, %d elems (%d bytes expanded)\n",
			s.DecodeRows, s.DecodeBlocks, s.DecodeElems, s.DecodeBytes)
		if probes := s.ProbeHits + s.ProbeMisses; probes > 0 {
			p("  probe-block cache: %d hits / %d probes (%.1f%%)\n",
				s.ProbeHits, probes, 100*float64(s.ProbeHits)/float64(probes))
		}
		if s.ResidencySampled {
			pct := 0.0
			if s.MappedBytes > 0 {
				pct = 100 * float64(s.ResidentBytes) / float64(s.MappedBytes)
			}
			p("  mmap residency: %d of %d bytes resident (%.1f%%)\n",
				s.ResidentBytes, s.MappedBytes, pct)
		}
	}
	if r.TransformNS > 0 || r.ConvertNS > 0 {
		p("\ntransform: %v  convert: %v\n", time.Duration(r.TransformNS), time.Duration(r.ConvertNS))
	}
	return err
}

func nameOr(name, fallback string) string {
	if name != "" {
		return name
	}
	return fallback
}

// namedIndex maps structure IDs of the paper's named patterns to their
// figure names, built once on first use.
var (
	namedIndex map[uint64]string
	namedOnce  sync.Once
)

func namedByID() map[uint64]string {
	namedOnce.Do(func() {
		idx := map[uint64]string{}
		add := func(ns []pattern.Named) {
			for _, n := range ns {
				id := canon.StructureID(n.Pattern)
				if _, dup := idx[id]; !dup {
					idx[id] = n.Name
				}
			}
		}
		add(pattern.Fig1Patterns())
		add(pattern.Fig11Patterns())
		namedIndex = idx
	})
	return namedIndex
}

// FriendlyName returns the paper's figure name for p's structure
// ("triangle", "4-cycle", ...) or "" when the structure is not one of
// the named patterns. Labeled patterns are never named (the figures'
// patterns are unlabeled).
func FriendlyName(p *pattern.Pattern) string {
	if p == nil || p.Labeled() {
		return ""
	}
	return namedByID()[canon.StructureID(p)]
}

// friendlyNameString is FriendlyName over the textual pattern format.
func friendlyNameString(s string) string {
	p, err := pattern.Parse(s)
	if err != nil {
		return ""
	}
	return FriendlyName(p)
}
