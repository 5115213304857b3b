package core

import (
	"math"

	"morphing/internal/costmodel"
	"morphing/internal/pattern"
	"morphing/internal/plan"
)

// This file holds the explainability side of pattern transformation: the
// trace Algorithm 1 leaves behind when SelectOptions.Explain is set, the
// per-choice cost/cardinality annotations calibration compares against
// measured engine.Stats.

// maxExplainCandidates caps the candidate-morph trace. Algorithm 1
// enumerates up to 2^maxSubset subsets per parent per iteration; on
// adversarial query sets that is far more than any report wants to
// render, so the trace keeps the first entries and counts the rest in
// Truncated. Accepted morphs are always recorded — they are the plan.
const maxExplainCandidates = 4096

// ScoredPair is one (pattern, variant) as Algorithm 1 saw it while
// scoring a candidate morph. A removed pair's Cost is what it costs mined
// on its own (the morph credits CostOut: the trie levels no staying pattern
// occupies). An added pair's Cost is its marginal price — the levels
// nothing scheduled, and no pair listed before it, already holds — and
// Shared the number of its levels that were already there.
type ScoredPair struct {
	Pattern string  `json:"pattern"`
	Variant string  `json:"variant"`
	Cost    float64 `json:"cost"`
	Shared  int     `json:"shared_levels,omitempty"`
	// Free marks pairs already scheduled in the working set S: they are
	// added at zero marginal cost, the compounding effect that makes
	// overlapping morphs cheap (§5, cost zeroing).
	Free bool `json:"free,omitempty"`
}

// CandidateMorph is one subset-replacement Algorithm 1 scored: remove the
// subset C of the working set, add the union of its members' alternative
// sets. Accepted morphs strictly decreased the modeled total.
type CandidateMorph struct {
	Iter     int          `json:"iter"`
	Parent   string       `json:"parent"`
	Removed  []ScoredPair `json:"removed"`
	Added    []ScoredPair `json:"added"`
	CostOut  float64      `json:"cost_removed"`
	CostIn   float64      `json:"cost_added"`
	Accepted bool         `json:"accepted"`
}

// NodeCost records the cost model's two variant estimates for one S-DAG
// structure, as consulted during selection.
type NodeCost struct {
	ID      uint64  `json:"id"`
	Pattern string  `json:"pattern"`
	CostE   float64 `json:"cost_edge_induced"`
	CostV   float64 `json:"cost_vertex_induced"`
}

// SelectionExplain is the trace of one Select run: every structure cost
// the model produced and every candidate morph scored, in the
// deterministic order the algorithm visited them.
type SelectionExplain struct {
	NodeCosts  []NodeCost       `json:"node_costs"`
	Candidates []CandidateMorph `json:"candidates"`
	// Truncated counts rejected candidates dropped once the trace hit
	// its cap (accepted ones are always kept).
	Truncated int `json:"truncated,omitempty"`
	// Unmorphable lists the structures Select refused to morph because
	// their superpattern set exceeds the S-DAG's bound (ErrUpSetTooLarge);
	// they are mined as they are.
	Unmorphable []string `json:"unmorphable,omitempty"`
	// CostFault is the first level price that was NaN, infinite or
	// negative, when Select met one: it then decided nothing and kept the
	// queries as they are.
	CostFault string `json:"cost_fault,omitempty"`
}

// recordCandidate appends one scored morph, enforcing the cap on
// rejected entries.
func (e *SelectionExplain) recordCandidate(c CandidateMorph) {
	if !c.Accepted && len(e.Candidates) >= maxExplainCandidates {
		e.Truncated++
		return
	}
	e.Candidates = append(e.Candidates, c)
}

// AnnotateEstimates fills each Choice's EstCost and EstMatches from the
// cost model, the predictions post-run calibration compares against the
// measured per-pattern matches. EstCost is the choice's marginal price
// inside the selected set — the trie levels no other choice occupies; the
// set's total is CostAfter — so a choice that shares its whole prefix costs
// its last level. Estimation failures (never expected for connected
// patterns) leave +Inf cost and zero matches.
func (sel *Selection) AnnotateEstimates(model *costmodel.Model, perMatchCost float64) {
	var levels []costmodel.Level
	ends := make([]int, len(sel.Mine))
	users := map[uint64]int{}
	for i := range sel.Mine {
		c := &sel.Mine[i]
		var err error
		if levels, err = model.PatternLevels(c.Pattern.Variant(c.Variant), perMatchCost, levels); err != nil {
			c.EstCost = math.Inf(1)
		}
		ends[i] = len(levels)
		if _, aut, err := plan.BuildAut(c.Pattern); err == nil {
			c.EstMatches = model.MatchEstimate(c.Pattern, aut)
		}
	}
	for _, l := range levels {
		users[l.Key]++
	}
	for i, at := 0, 0; i < len(ends); at, i = ends[i], i+1 {
		for _, l := range levels[at:ends[i]] {
			if users[l.Key] == 1 {
				sel.Mine[i].EstCost += l.Cost
			}
		}
	}
}

// variantString names a variant the way reports print it.
func variantString(v pattern.Induced) string {
	if v == pattern.VertexInduced {
		return "vertex-induced"
	}
	return "edge-induced"
}
