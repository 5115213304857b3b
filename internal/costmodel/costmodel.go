// Package costmodel estimates the relative cost of matching patterns on a
// data graph, following §5.2 of the paper: the graph is abstracted as a
// probabilistic graph, restricted to its high-degree portion (the 95th
// degree percentile contributes 66-99% of matches and runtime), and the
// matching process is modeled as nested loops whose iteration counts
// multiply out expected candidate-set sizes. Symmetry-breaking partial
// orders halve restricted levels, anti-edges add set-difference work, and
// aggregation cost is the expected match count times a per-match cost that
// can be estimated by profiling the application UDF.
//
// Costs are relative, unitless quantities: the selection algorithm only
// compares them against each other, never against wall-clock time.
package costmodel

import (
	"math"
	"time"

	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/plan"
)

// Weights tune the model per system, mirroring how the paper piggybacks on
// each system's own planner model. Defaults work for all four engine
// models; GraphPi's order selection uses the same weights.
type Weights struct {
	// SetOp scales the per-merge-element cost of candidate generation.
	SetOp float64
	// Iterate scales the innermost-loop iteration cost.
	Iterate float64
	// RestrictionFactor is the candidate shrink applied to levels with
	// symmetry-breaking bounds (the expected fraction of neighbors with
	// larger/smaller IDs).
	RestrictionFactor float64
}

// DefaultWeights returns the weights used unless a system overrides them.
func DefaultWeights() Weights {
	return Weights{SetOp: 1, Iterate: 1, RestrictionFactor: 0.5}
}

// Model estimates pattern-matching costs for one data graph.
type Model struct {
	sum graph.Summary
	w   Weights

	n    float64 // high-degree portion size
	deg  float64 // expected degree inside the portion
	prob float64 // edge probability inside the portion

	// probPow[k] = prob^k and antiPow[k] = (1-prob)^k for every k a
	// pattern can ask for (at most one per vertex pair): selection prices
	// hundreds of patterns per query from the same few powers.
	probPow, antiPow [maxPairs + 1]float64
}

const maxPairs = pattern.MaxVertices * (pattern.MaxVertices - 1) / 2

// New builds a model from a graph summary with the given weights. Per the
// paper's enhancement the probabilistic graph is restricted to the
// high-degree portion; the `ablation` bench experiment compares this
// against whole-graph statistics (per-pattern *ranking* can look better
// unrestricted at laptop scale, but the restricted model makes the better
// alternative-set decisions because mining work concentrates on hubs).
func New(sum graph.Summary, w Weights) *Model {
	m := &Model{sum: sum, w: w}
	m.n = float64(sum.HighN)
	if m.n < 2 {
		m.n = math.Max(2, float64(sum.NumVertices))
	}
	m.deg = sum.HighAvgDegree
	if m.deg <= 0 {
		m.deg = math.Max(1, sum.AvgDegree)
	}
	m.prob = sum.HighEdgeProb
	if m.prob <= 0 {
		m.prob = math.Min(0.9, m.deg/m.n)
	}
	// The paper's full-size graphs have high-degree portions of thousands
	// of vertices with modest internal density (MiCo's is on the order of
	// 1%). Scaled-down synthetic graphs concentrate a handful of hubs into
	// a near-clique, inflating the estimate to 0.5+ and making anti-edge
	// pruning look far stronger than it is; the cap keeps the model in the
	// regime it was designed for.
	if m.prob > maxEdgeProb {
		m.prob = maxEdgeProb
	}
	for k := range m.probPow {
		m.probPow[k] = math.Pow(m.prob, float64(k))
		m.antiPow[k] = math.Pow(1-m.prob, float64(k))
	}
	return m
}

// maxEdgeProb caps the probabilistic graph's edge probability (see New).
const maxEdgeProb = 0.25

// NewDefault is New with DefaultWeights.
func NewDefault(sum graph.Summary) *Model { return New(sum, DefaultWeights()) }

// labelFactor is the probability a random vertex carries the required
// label (1 for wildcards or unlabeled graphs).
func (m *Model) labelFactor(l int32) float64 {
	if l == pattern.Unlabeled || len(m.sum.LabelFreq) == 0 {
		return 1
	}
	f, ok := m.sum.LabelFreq[l]
	if !ok || f <= 0 {
		// Unseen label: tiny but non-zero so costs stay ordered.
		return 0.5 / math.Max(1, float64(m.sum.NumVertices))
	}
	return f
}

// PlanCost estimates the work to execute pl: set-operation work at every
// level plus the innermost-loop iteration count, the quantity the paper's
// planners minimize.
func (m *Model) PlanCost(pl *plan.Plan) float64 {
	iters := 1.0 // partial embeddings entering the current level
	cost := 0.0
	for i := range pl.Order {
		var cands float64
		if i == 0 {
			cands = m.n
			// The root loop scans every vertex to test its label before
			// any selectivity applies: a fixed per-pattern cost that makes
			// alternative sets of many cheap labeled patterns pay for
			// their breadth (each extra pattern re-scans the graph).
			cost += m.w.Iterate * m.n
		} else {
			k := len(pl.Connect[i])
			// Expected vertices adjacent to all k bound vertices.
			cands = m.n * m.probPow[k]
			// Set-operation work: merging k adjacency lists plus one
			// difference per anti-edge, each scanning ~deg elements.
			merges := float64(k-1+len(pl.Disconnect[i])) + 1
			cost += m.w.SetOp * iters * merges * m.deg
		}
		cands *= m.labelFactor(pl.Pattern.Label(pl.Order[i]))
		if len(pl.Greater[i])+len(pl.Smaller[i]) > 0 {
			cands *= m.w.RestrictionFactor
		}
		// Anti-edges prune candidates.
		cands *= m.antiPow[len(pl.Disconnect[i])]
		if cands < 1e-12 {
			cands = 1e-12
		}
		iters *= cands
		cost += m.w.Iterate * iters
	}
	return cost
}

// MatchEstimate returns the expected number of unique matches of p in the
// probabilistic graph: n^k * prob^edges * (1-prob)^antiedges / |Aut| with
// label-frequency factors. It quantifies the paper's key trade-off: the
// vertex-induced variant always has fewer expected matches, the
// edge-induced variant needs no anti-edge set operations.
func (m *Model) MatchEstimate(p *pattern.Pattern, autSize int) float64 {
	est := 1.0
	for v := 0; v < p.N(); v++ {
		est *= m.n * m.labelFactor(p.Label(v))
	}
	est *= m.probPow[p.EdgeCount()]
	if p.Induced() == pattern.VertexInduced {
		est *= m.antiPow[p.N()*(p.N()-1)/2-p.EdgeCount()]
	}
	if autSize < 1 {
		autSize = 1
	}
	return est / float64(autSize)
}

// PatternCost estimates the end-to-end cost of mining p with the default
// plan and invoking an aggregation costing perMatch per result (§5.2:
// "the costs are modeled as the number of estimated matches multiplied by
// the amount of work for the aggregation"). Plan and |Aut(p)| come from
// the per-shape memo (plan.BuildAut), so pricing the labelings of one shape
// builds one plan; p's own labels enter through PlanCost's and
// MatchEstimate's label factors.
func (m *Model) PatternCost(p *pattern.Pattern, perMatch float64) (float64, error) {
	pl, aut, err := plan.BuildAut(p)
	if err != nil {
		return 0, err
	}
	return m.PlanCost(&pl) + perMatch*m.MatchEstimate(p, aut), nil
}

// ProfileUDF estimates the per-match cost of an application UDF by timing
// it on synthetic matches of k vertices drawn from [0, maxVertex), the
// profiling strategy of §5.2 ("a set of n dummy matches can be generated
// by randomly selecting |V(P)| vertices n times"). The returned cost is
// normalized to the model's unitless iteration cost using opsPerSecond
// (how many model iterations correspond to a second; a rough constant is
// fine because selection only compares costs relatively).
func ProfileUDF(udf func(m []uint32), k, samples int, maxVertex uint32, opsPerSecond float64) float64 {
	if samples <= 0 {
		samples = 1024
	}
	if maxVertex == 0 {
		maxVertex = 1
	}
	matches := make([][]uint32, samples)
	for i := range matches {
		mm := make([]uint32, k)
		for j := range mm {
			// Deterministic pseudo-random vertices; actual values are
			// irrelevant to UDF cost scaling.
			mm[j] = uint32(uint64(i*2654435761+j*40503) % uint64(maxVertex))
		}
		matches[i] = mm
	}
	start := time.Now()
	for _, mm := range matches {
		udf(mm)
	}
	perMatchSeconds := time.Since(start).Seconds() / float64(samples)
	if opsPerSecond <= 0 {
		opsPerSecond = 1e8
	}
	return perMatchSeconds * opsPerSecond
}
