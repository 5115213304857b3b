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

// Weights are what one modeled action of the executor costs, in elements
// scanned — the unit of engine.Stats.Work, the exact work Algorithm 1's
// decisions are judged in: the model multiplies them into its estimates of
// how often each action runs. They tune the model per system, mirroring
// how the paper piggybacks on each system's own planner model; the
// defaults are fitted on the one executor all four engine models share,
// and GraphPi's order selection uses them too.
type Weights struct {
	// SetOp scales an intersection: one kernel call costs SetOp x the
	// model's row length.
	SetOp float64
	// Difference scales an anti-edge difference, and any kernel call
	// against a base that is one row narrowed by differences (callsOf).
	Difference float64
	// Iterate is one execution of a trie node — a root vertex tested, a
	// candidate compared against the bound vertices and its windows, bound
	// and descended into — and one match delivered when matches are.
	Iterate float64
	// Leaf is one execution of a count-only last level that calls no
	// kernel: a collapsed leaf, counted for all its parent's candidates at
	// once by rank sums over a set already held.
	Leaf float64
	// Marked is one element a marked leaf scans (plan.OpCountMarked): it
	// probes the binding row, a model row per execution, into a
	// bitmap of its base, and marks the base, its expected size, once per
	// base (markScan) — where a merge would cost Difference x a row per
	// execution.
	Marked float64
	// RestrictionFactor is the candidate shrink applied to levels with
	// symmetry-breaking bounds (the expected fraction of neighbors with
	// larger/smaller IDs). Not fitted.
	RestrictionFactor float64
}

// DefaultWeights returns the weights used unless a system overrides them:
// the least-squares fit of 2026-10-18 (TestFitWeights, which fails when
// these constants stop being its solution; -v prints the table). Forty
// counting passes — the repo benchmark's serve pool, 4-motifs and sc list,
// each as queried and as the edge-induced closure an edge-only engine mines,
// on MI x0.01 and MG x0.003 — give, per pass, its exact work
// (engine.Stats.Work: elements scanned by kernels, base builds, marks and
// the collapsed leaves' rank sums, plus depth + 2 comparisons per candidate
// a binding level examined). Against the measured number of intersections,
// differences, marked-leaf probes and marks, collapsed-leaf executions and
// node executions of each pass (per-node Enters, every node's lowered op),
// relative least squares yields SetOp 1.2 and Difference 3.02 model rows
// per call, Leaf 1.54, Iterate 6.37 and Marked 1.8 elements; 38 of the 40
// rows are predicted within x1.6, the other two (a single tailed triangle
// on either graph, whose leaf windows move with the parent's binding) at
// x0.54 and x0.55. A collapsed leaf's elements are its parent's candidates
// and its base, walked once per parent execution, so Leaf is that walk
// spread over the candidates. Without Marked — the marked leaves priced as
// merges — the fit reads Iterate -0.03 and every vertex-induced query runs
// direct; with marked probes priced at a whole row, chordal-4-cycle:v runs
// direct on both graphs and does 1.24-1.35x the forced route's work.
// Before the first fit the model priced with SetOp 1, Iterate 1 and no
// other term.
func DefaultWeights() Weights {
	return Weights{SetOp: 1.2, Difference: 3.02, Iterate: 6.37, Leaf: 1.54, Marked: 1.8, RestrictionFactor: 0.5}
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

// Level is one node of the merged trie a plan occupies (plan.MergePlans).
// Key identifies the node by the sharing rule Trie.insert applies: the
// (Connect, Disconnect, label) sequence from the root through the level and
// the symmetry branches taken above it (a level's own windows do not split
// it). Cost is what executing the node costs a pass, so a set of plans
// costs the sum over its distinct Keys.
type Level struct {
	Key  uint64
	Cost float64
}

// Levels appends pl's trie nodes to dst, root first, each priced by the op
// it runs in the plan's own counting pass on the model's tier
// (countingOps): the root scan; below it one Iterate per execution — a
// level runs once per binding of its parent — plus its kernel calls. In a counting pass (perMatch == 0) the last level is count-only:
// its kernel call per entering prefix, if any, no per-match iteration, and
// Leaf more when its parent counts it in bulk (OpCollapsed); a marked leaf
// (OpCountMarked) pays Marked per element it probes and marks (markScan) in
// place of its difference. With perMatch > 0 every match is delivered: the
// last level is iterated and carries perMatch per expected unique match,
// aut being |Aut(pattern)|. A last level's key is its own — it never merges
// with an inner level of a larger pattern, which executes differently.
func (m *Model) Levels(pl *plan.Plan, perMatch float64, aut int, dst []Level) []Level {
	var buf [pattern.MaxVertices]plan.Op
	ops := m.countingOps(pl, buf[:0])
	var enter [pattern.MaxVertices + 1]float64 // partial embeddings entering each level
	enter[0] = 1
	matches := 1 / float64(max(aut, 1)) // unique matches: no window, one per automorphism class
	key, last := uint64(0x9e3779b97f4a7c15), len(pl.Order)-1
	for i := range pl.Order {
		op := &ops[i]
		label := pl.Pattern.Label(pl.Order[i])
		conn, disc := pl.Connect[i], pl.Disconnect[i]
		key = mix(mix(mix(key, uint64(uint32(label))), mask(conn)), mask(disc))

		// Expected vertices adjacent to every bound neighbor and to no
		// bound anti-neighbor, carrying the label, inside the window.
		cands := m.n * m.probPow[len(conn)] * m.antiPow[len(disc)] * m.labelFactor(label)
		matches *= cands
		if len(pl.Greater[i])+len(pl.Smaller[i]) > 0 {
			cands *= m.w.RestrictionFactor
		}
		enter[i+1] = enter[i] * max(cands, 1e-12)

		// The root tests every vertex's label before any selectivity
		// applies: breadth in labeled alternatives pays a scan each. Any
		// other level runs once per binding of its parent — the iteration
		// that binds is charged to the level it enters, so a node's cost
		// does not depend on its own windows, which are not in its key.
		cost := m.w.Iterate * m.n
		if i > 0 {
			k := callsOf(pl, i, op)
			marked := 0.0 // elements a marked leaf probes and marks
			if perMatch == 0 && op.Kind == plan.OpCountMarked {
				probes, size := m.markScan(pl, i)
				marked, k.diff = probes*enter[i]+size*enter[k.remade], 0
			}
			cost = m.w.Iterate*enter[i] + m.w.Marked*marked + m.deg*
				(enter[i]*(m.w.SetOp*k.inter+m.w.Difference*k.diff)+
					enter[k.remade]*(m.w.SetOp*k.baseInter+m.w.Difference*k.baseDiff))
		}
		k := key
		if i == last {
			k = mix(key, lastLevel)
			switch {
			case perMatch > 0:
				cost += m.w.Iterate*enter[i+1] + perMatch*matches
			case op.Kind == plan.OpCollapsed:
				cost += m.w.Leaf * enter[i]
			}
		}
		dst = append(dst, Level{Key: k, Cost: cost})
		key = mix(mix(key, mask(pl.Greater[i])), mask(pl.Smaller[i]))
	}
	return dst
}

// countingOps returns the ops of pl's own counting pass on the model's tier
// (plan.Plan.CountingOps), appended to dst unless the memo BuildAut lowered
// with label rows serves: on a tier with them, or for an unlabeled plan,
// whose ops are the same on every tier. An order GraphPi's search built has
// no memo.
func (m *Model) countingOps(pl *plan.Plan, dst []plan.Op) []plan.Op {
	if pl.Counting != nil && (m.sum.LabelRows || !pl.Pattern.Labeled()) {
		return pl.Counting
	}
	return pl.CountingOps(dst, m.sum.LabelRows)
}

// calls counts kernel calls per execution, and per execution of level
// remade, which remakes the base: its build.
type calls struct {
	inter, diff, baseInter, baseDiff float64
	remade                           int
}

// callsOf counts level i's kernel calls as op runs them, switching on op.Src
// as the executor does: own lists, a call per row but the first; a base, the
// binding part's call, and its operands but the first per build (SrcBuilt,
// none when aliased). A base of one row narrowed by differences stays
// row-sized, so a call against it counts as a difference, whatever the call
// (the fit's table, MI: 29-53 elements a call, 12-15 against intersections).
func callsOf(pl *plan.Plan, i int, op *plan.Op) (k calls) {
	switch op.Src {
	case plan.SrcRows, plan.SrcRow, plan.SrcFan:
		return calls{inter: float64(len(pl.Connect[i]) - 1), diff: float64(len(pl.Disconnect[i]))}
	}
	c := &pl.Class[i]
	k.inter, k.diff = float64(len(c.BConn)), float64(len(c.BDisc))
	bi, bd := len(pl.Connect[i])-len(c.BConn)-1, len(pl.Disconnect[i])-len(c.BDisc) // the base's operands but the first
	if bi == 0 {
		k.inter, k.diff = 0, k.inter+k.diff
	}
	if k.remade = int(op.At); op.Src == plan.SrcBuilt {
		k.baseInter, k.baseDiff, k.remade = float64(bi), float64(bd), k.remade+1
	}
	return k
}

// markScan returns what a marked leaf at level i scans: per execution the
// binding row clipped to its window, which keeps RestrictionFactor of a row
// per window nested (windowDepth), and its base's expected size, marked
// again whenever the base is remade (callsOf).
func (m *Model) markScan(pl *plan.Plan, i int) (probes, size float64) {
	probes = m.deg * math.Pow(m.w.RestrictionFactor, float64(windowDepth(pl, i)))
	size = m.n * m.probPow[len(pl.Connect[i])] * m.antiPow[len(pl.Disconnect[i])-1]
	return probes, size
}

// windowDepth returns how many windows level i's window is nested in: 0
// without one, else one more than the deepest of the levels bounding it.
func windowDepth(pl *plan.Plan, i int) int {
	d := 0
	for _, bound := range [2][]int{pl.Greater[i], pl.Smaller[i]} {
		for _, j := range bound {
			d = max(d, 1+windowDepth(pl, j))
		}
	}
	return d
}

// lastLevel salts the key of a plan's final level.
const lastLevel = 0xff51afd7ed558ccd

func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

func mask(levels []int) (m uint64) {
	for _, l := range levels {
		m |= 1 << uint(l)
	}
	return m
}

// PlanCost prices pl standing alone, in a counting pass: the sum of its
// levels. GraphPi's order search compares the orders of one pattern by it;
// a set of plans costs less than the sum of its PlanCosts wherever their
// prefixes merge (see Levels).
func (m *Model) PlanCost(pl *plan.Plan) float64 {
	var buf [pattern.MaxVertices]Level
	cost := 0.0
	for _, l := range m.Levels(pl, 0, 1, buf[:0]) {
		cost += l.Cost
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

// PatternLevels is Levels for p's default plan, with the aggregation of
// §5.2 on its last level ("the number of estimated matches multiplied by
// the amount of work for the aggregation", perMatch per result). Plan and
// |Aut(p)| come from the per-shape memo (plan.BuildAut), so pricing the
// labelings of one shape builds one plan; p's own labels enter through the
// label factors.
func (m *Model) PatternLevels(p *pattern.Pattern, perMatch float64, dst []Level) ([]Level, error) {
	pl, aut, err := plan.BuildAut(p)
	if err != nil {
		return dst, err
	}
	return m.Levels(&pl, perMatch, aut, dst), nil
}

// profileSamples is how many dummy matches ProfileUDF times, and
// profileOpsPerSecond how many model iterations it equates to a second (a
// rough constant is fine because selection only compares costs
// relatively).
const (
	profileSamples      = 4096
	profileOpsPerSecond = 1e8
)

// ProfileUDF estimates the per-match cost of an application UDF by timing
// it on synthetic matches of k vertices drawn from [0, maxVertex), the
// profiling strategy of §5.2 ("a set of n dummy matches can be generated
// by randomly selecting |V(P)| vertices n times"). The returned cost is
// normalized to the model's unitless iteration cost.
func ProfileUDF(udf func(m []uint32), k int, maxVertex uint32) float64 {
	if maxVertex == 0 {
		maxVertex = 1
	}
	matches := make([][]uint32, profileSamples)
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
	return time.Since(start).Seconds() / profileSamples * profileOpsPerSecond
}
