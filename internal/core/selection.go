package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"morphing/internal/canon"
	"morphing/internal/costmodel"
	"morphing/internal/pattern"
)

// Policy constrains which variants alternative patterns may use. The
// constraint comes from the aggregation algebra and the engine (§4.3,
// §4.4): the additive conversion direction (edge-induced results from
// vertex-induced alternatives) works for any aggregation, while the
// subtractive direction needs an invertible ⊕; engines without native
// anti-edge support can only mine edge-induced alternatives.
type Policy int

const (
	// PolicyAny allows either variant per alternative: the aggregation is
	// invertible and the engine matches both semantics (e.g. counting on
	// Peregrine/AutoZero).
	PolicyAny Policy = iota
	// PolicyVertexOnly forces vertex-induced alternatives: the
	// aggregation is not invertible (MNI, match streaming), so only the
	// additive direction is sound. Edge-induced queries can morph;
	// vertex-induced queries cannot.
	PolicyVertexOnly
	// PolicyEdgeOnly forces edge-induced alternatives: the engine has no
	// native anti-edge support (GraphPi/BigJoin models). Requires an
	// invertible aggregation; vertex-induced queries morph, edge-induced
	// queries are already in target form.
	PolicyEdgeOnly
)

func (p Policy) String() string {
	switch p {
	case PolicyAny:
		return "any"
	case PolicyVertexOnly:
		return "vertex-only"
	case PolicyEdgeOnly:
		return "edge-only"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Costs holds the estimated mining cost of a structure's two variants.
type Costs struct {
	E, V float64
}

// CostFunc estimates variant costs for an S-DAG node. DefaultCostFunc
// derives one from the cost model; tests inject exact tables.
type CostFunc func(n *Node) Costs

// DefaultCostFunc builds a CostFunc from the §5.2 cost model: plan cost
// plus expected matches times the per-match aggregation cost.
func DefaultCostFunc(model *costmodel.Model, perMatchCost float64) CostFunc {
	return func(n *Node) Costs {
		cE, errE := model.PatternCost(n.Pattern, perMatchCost)
		cV, errV := model.PatternCost(n.Pattern.AsVertexInduced(), perMatchCost)
		if errE != nil || errV != nil {
			// Connected patterns never fail plan building; treat as very
			// expensive so selection avoids them rather than aborting.
			return Costs{E: math.Inf(1), V: math.Inf(1)}
		}
		return Costs{E: cE, V: cV}
	}
}

// pairKey identifies (structure, variant) — the unit of mining work.
type pairKey struct {
	id      uint64
	variant pattern.Induced
}

// Choice is one pattern the engine must mine: a structure, the variant to
// mine it in, and the exact pattern object (the "frame") whose vertex
// numbering all of its results use. Unmorphed queries keep their original
// object; alternatives use the canonical representative.
type Choice struct {
	Node    *Node
	Variant pattern.Induced
	Pattern *pattern.Pattern

	// EstCost and EstMatches are the cost model's predictions for mining
	// this choice, filled by Selection.AnnotateEstimates (explain mode
	// only; zero otherwise). Calibration divides EstMatches by the
	// measured match count.
	EstCost    float64
	EstMatches float64
}

// Query pairs an input pattern with its S-DAG node.
type Query struct {
	Pattern *pattern.Pattern
	Node    *Node
	Morphed bool
}

// Selection is the output of pattern transformation: the alternative
// pattern set to mine and the bookkeeping needed to convert results back.
type Selection struct {
	SDAG    *SDAG
	Policy  Policy
	Queries []Query
	Mine    []Choice

	// CostBefore/CostAfter are the model's totals for the original query
	// set and the selected alternative set (diagnostics and Fig. 15e).
	CostBefore, CostAfter float64

	// Explain is the Algorithm 1 trace, recorded only when
	// SelectOptions.Explain was set; nil otherwise.
	Explain *SelectionExplain

	byPair map[pairKey]int // pair -> index into Mine
}

// SelectOptions tunes Select.
type SelectOptions struct {
	// MaxSubset caps the size of children subsets enumerated per parent
	// (Algorithm 1 line 6); 0 means 12.
	MaxSubset int
	// DisableMorphing keeps every query as-is (the baseline systems).
	DisableMorphing bool
	// Explain records the selection trace (every node cost and every
	// candidate morph scored) in Selection.Explain. Off the explain path
	// this costs nothing; with it, selection allocates trace entries but
	// its decisions are identical.
	Explain bool
}

// IdentitySelection returns the no-morphing selection: every query is
// mined as-is. Baseline runs use it to avoid paying for S-DAG
// construction they do not need; conversion degenerates to pass-through.
func IdentitySelection(queries []*pattern.Pattern) (*Selection, error) {
	sel := &Selection{Policy: PolicyAny, byPair: map[pairKey]int{}}
	for i, q := range queries {
		if q == nil || !q.IsConnected() {
			return nil, fmt.Errorf("core: query %d (%v) is not a connected pattern", i, q)
		}
		n := &Node{ID: canon.StructureID(q), Pattern: q.AsEdgeInduced()}
		sel.Queries = append(sel.Queries, Query{Pattern: q, Node: n})
		k := pairKey{n.ID, normVariant(q)}
		if _, dup := sel.byPair[k]; dup {
			continue
		}
		sel.byPair[k] = len(sel.Mine)
		sel.Mine = append(sel.Mine, Choice{Node: n, Variant: normVariant(q), Pattern: q})
	}
	return sel, nil
}

// Select implements Algorithm 1: starting from the query set, greedily
// replace subsets of patterns with their combined superpattern sets
// whenever the cost model predicts a win, zeroing the cost of patterns
// already scheduled so overlapping alternatives compound. It asks d for
// superpatterns only above members a morph could pay for (see live), so a
// set it declines costs its queries' prices and nothing else. Generating
// superpatterns polls ctx: a cancelled or expired context ends Select with
// the typed engine error.
func Select(ctx context.Context, d *SDAG, queries []*pattern.Pattern, cost CostFunc, policy Policy, opts SelectOptions) (*Selection, error) {
	sel := &Selection{SDAG: d, Policy: policy, byPair: make(map[pairKey]int, len(queries))}
	if len(queries) == 0 {
		return sel, nil
	}

	var ex *SelectionExplain
	if opts.Explain {
		ex = &SelectionExplain{}
		sel.Explain = ex
	}

	// Per-node base costs, computed once. Trace entries append on the
	// memoization miss, so their order follows the algorithm's (fully
	// deterministic) first consultation of each structure.
	baseCosts := make(map[uint64]Costs, len(queries))
	nodeCost := func(n *Node) Costs {
		c, ok := baseCosts[n.ID]
		if !ok {
			c = cost(n)
			baseCosts[n.ID] = c
			if ex != nil {
				ex.NodeCosts = append(ex.NodeCosts, NodeCost{
					ID: n.ID, Pattern: n.Pattern.String(), CostE: c.E, CostV: c.V,
				})
			}
		}
		return c
	}
	variantCost := func(n *Node, v pattern.Induced) float64 {
		c := nodeCost(n)
		if n.Pattern.IsClique() {
			// The variants of a clique are the same pattern; its one true
			// cost is the smaller estimate.
			return math.Min(c.E, c.V)
		}
		if v == pattern.VertexInduced {
			return c.V
		}
		return c.E
	}
	// bestVariant picks the cheapest variant a policy allows for an
	// alternative pattern. Cliques have identical variants; normalize to
	// the policy's canonical form.
	bestVariant := func(n *Node) pattern.Induced {
		switch policy {
		case PolicyVertexOnly:
			return pattern.VertexInduced
		case PolicyEdgeOnly:
			return pattern.EdgeInduced
		default:
			if n.Pattern.IsClique() {
				return pattern.EdgeInduced
			}
			c := nodeCost(n)
			if c.V < c.E {
				return pattern.VertexInduced
			}
			return pattern.EdgeInduced
		}
	}

	// S: the working alternative set, keyed by (structure, variant).
	type member struct {
		node *Node
		key  pairKey
	}
	S := make(map[pairKey]*Node, len(queries))

	sel.Queries = make([]Query, 0, len(queries))
	for i, q := range queries {
		n := d.Node(q)
		if n == nil {
			return nil, fmt.Errorf("core: query %d (%v) missing from S-DAG", i, q)
		}
		sel.Queries = append(sel.Queries, Query{Pattern: q, Node: n})
		S[pairKey{n.ID, normVariant(q)}] = n
		sel.CostBefore += variantCost(n, normVariant(q))
	}

	// morphable reports whether a pair may be replaced by its alternative
	// set under the policy.
	morphable := func(k pairKey, n *Node) bool {
		if n.Pattern.IsClique() || n.tooBig {
			return false // no proper same-size superpatterns, or too many
		}
		switch policy {
		case PolicyVertexOnly:
			return k.variant == pattern.EdgeInduced
		case PolicyEdgeOnly:
			return k.variant == pattern.VertexInduced
		default:
			return true
		}
	}

	// selfPair is the pair that replaces k's structure when k is morphed:
	// the structure itself in the other (or policy-forced) variant.
	selfPair := func(k pairKey) pairKey {
		if policy == PolicyVertexOnly || policy == PolicyAny && k.variant == pattern.EdgeInduced {
			return pairKey{k.id, pattern.VertexInduced}
		}
		return pairKey{k.id, pattern.EdgeInduced}
	}
	// altSet returns the replacement pairs for pair k: its selfPair plus
	// its strict superpattern up-set in the policy's best variants. The
	// first request for a structure's up-set generates it; one over
	// maxUpSet (ErrUpSetTooLarge) makes the structure unmorphable.
	altSet := func(k pairKey, n *Node) ([]member, error) {
		up, err := d.upSet(ctx, n)
		if err != nil {
			return nil, err
		}
		out := make([]member, 0, len(up))
		out = append(out, member{node: n, key: selfPair(k)})
		for _, s := range up[:len(up)-1] {
			out = append(out, member{node: s, key: pairKey{s.ID, bestVariantNorm(s, bestVariant)}})
		}
		return out, nil
	}
	// live reports whether a candidate morph containing c could be
	// accepted. Every candidate C adds the selfPair of each of its members
	// — distinct pairs, as C never holds both variants of a structure. If
	// none is in S and each costs at least what removing its member
	// credits, added ≥ removed (costs are never negative): a parent with
	// no live child has all 2^k candidates rejected, so superpatterns are
	// generated above live members only. The explain trace lists rejected
	// candidates: there every member counts as live.
	live := func(c member) bool {
		if ex != nil {
			return true
		}
		self := selfPair(c.key)
		_, in := S[self]
		return in || variantCost(c.node, self.variant) < variantCost(c.node, c.key.variant)
	}

	maxSubset := opts.MaxSubset
	if maxSubset <= 0 {
		maxSubset = 12
	}

	if !opts.DisableMorphing {
		// Algorithm 1 main loop. A candidate morph replaces a subset C of
		// S with the union of its members' alternative sets; it is
		// accepted when the total modeled mining cost of S strictly
		// decreases (pairs already in S are free additions, removed pairs
		// credit their full cost). Strict decrease over a finite
		// configuration space guarantees convergence without the paper's
		// explicit cost-zeroing bookkeeping, while preserving its effect:
		// already-scheduled patterns make overlapping morphs cheap.
		for iter := 0; iter < 8*len(d.nodes)+32; iter++ {
			changed := false
			// An iteration visits, in S-DAG order, the parents of the
			// structures S held when it began. frontier lists those still
			// ahead of `after` that have a live child now; a member that
			// joined S during the iteration counts only through a parent
			// it shares with a structure of the beginning.
			var atStart map[uint64]bool
			frontier := func(after *Node) ([]*Node, error) {
				var out []*Node
				listed := map[uint64]bool{}
				for k, n := range S {
					if !morphable(k, n) || !live(member{node: n, key: k}) {
						continue
					}
					if atStart == nil { // the first call of the iteration: S is as it began
						atStart = make(map[uint64]bool, len(S))
						for k := range S {
							atStart[k.id] = true
						}
					}
					ps, err := d.parents(ctx, n)
					if err != nil {
						return nil, err
					}
					for _, p := range ps {
						if after != nil && !nodeLess(after, p) || listed[p.ID] {
							continue
						}
						if atStart[k.id] || slices.ContainsFunc(d.childrenOf(p), func(c *Node) bool { return atStart[c.ID] }) {
							listed[p.ID] = true
							out = append(out, p)
						}
					}
				}
				sortNodes(out)
				return out, nil
			}
			parents, err := frontier(nil)
			if err != nil {
				return nil, err
			}
			for pi := 0; pi < len(parents); pi++ {
				par := parents[pi]
				// Morphable S-members among par's children, live or not (a
				// live member's morph may only pay together with a
				// sibling's), each with its alternative set. Sorted before
				// the cap: what it keeps must not depend on build order.
				var kids []member
				for _, c := range d.childrenOf(par) {
					for _, v := range []pattern.Induced{pattern.EdgeInduced, pattern.VertexInduced} {
						k := pairKey{c.ID, v}
						if _, in := S[k]; in && morphable(k, c) {
							kids = append(kids, member{node: c, key: k})
						}
					}
				}
				sort.Slice(kids, func(i, j int) bool { return lessPair(kids[i].key, kids[j].key) })
				if len(kids) > maxSubset {
					kids = kids[:maxSubset]
				}
				alts := make([][]member, 0, len(kids))
				for _, c := range kids {
					alt, err := altSet(c.key, c.node)
					if errors.Is(err, ErrUpSetTooLarge) {
						continue
					} else if err != nil {
						return nil, err
					}
					kids[len(alts)] = c
					alts = append(alts, alt)
				}
				kids = kids[:len(alts)]
				if !slices.ContainsFunc(kids, live) {
					continue
				}
				// Largest subsets first: combined morphs capture overlap.
				for mask := (1 << len(kids)) - 1; mask >= 1; mask-- {
					var C []member
					inC := map[pairKey]bool{}
					spc := map[pairKey]*Node{}
					dualVariant := false
					seenStruct := map[uint64]bool{}
					for b := range kids {
						if mask&(1<<b) != 0 {
							if seenStruct[kids[b].key.id] {
								// Replacing both variants of one structure
								// at once is never meaningful: each one's
								// alternative set re-adds the other.
								dualVariant = true
								break
							}
							seenStruct[kids[b].key.id] = true
							C = append(C, kids[b])
							inC[kids[b].key] = true
							for _, m := range alts[b] {
								spc[m.key] = m.node
							}
						}
					}
					if dualVariant {
						continue
					}
					removed := 0.0
					for _, c := range C {
						removed += variantCost(c.node, c.key.variant)
					}
					added := 0.0
					for k, n := range spc {
						if _, in := S[k]; in && !inC[k] {
							continue // already scheduled and staying: free
						}
						added += variantCost(n, k.variant)
					}
					if ex != nil {
						cm := CandidateMorph{
							Iter: iter, Parent: par.Pattern.String(),
							CostOut: removed, CostIn: added, Accepted: added < removed,
						}
						for _, c := range C {
							cm.Removed = append(cm.Removed, ScoredPair{
								Pattern: c.node.Pattern.String(),
								Variant: variantString(c.key.variant),
								Cost:    variantCost(c.node, c.key.variant),
							})
						}
						// spc is a map: sort its keys so the trace is as
						// deterministic as the decision it records.
						spcKeys := make([]pairKey, 0, len(spc))
						for k := range spc {
							spcKeys = append(spcKeys, k)
						}
						sort.Slice(spcKeys, func(i, j int) bool { return lessPair(spcKeys[i], spcKeys[j]) })
						for _, k := range spcKeys {
							n := spc[k]
							_, staying := S[k]
							free := staying && !inC[k]
							p := ScoredPair{
								Pattern: n.Pattern.String(),
								Variant: variantString(k.variant),
								Free:    free,
							}
							if !free {
								p.Cost = variantCost(n, k.variant)
							}
							cm.Added = append(cm.Added, p)
						}
						ex.recordCandidate(cm)
					}
					if added < removed {
						for _, c := range C {
							delete(S, c.key)
						}
						for k, n := range spc {
							S[k] = n
						}
						changed = true
						// Liveness follows S: look again at what is ahead.
						ahead, err := frontier(par)
						if err != nil {
							return nil, err
						}
						parents = append(parents[:pi+1], ahead...)
						break // re-derive kids for this parent next iteration
					}
				}
			}
			if !changed {
				break
			}
		}
	}

	// PolicyEdgeOnly must morph non-clique vertex-induced queries even if
	// the model disfavors it: the engine cannot mine them at all. With
	// morphing disabled that is a hard error, not a silent morph — the
	// baseline for such workloads is the Filter-UDF path, which callers
	// must request explicitly.
	if policy == PolicyEdgeOnly {
		for _, q := range sel.Queries {
			k := pairKey{q.Node.ID, normVariant(q.Pattern)}
			if k.variant != pattern.VertexInduced {
				continue
			}
			if _, in := S[k]; !in {
				continue
			}
			if opts.DisableMorphing {
				return nil, fmt.Errorf("core: vertex-induced query %v cannot run under an edge-only engine without morphing; use a Filter UDF baseline instead", q.Pattern)
			}
			alt, err := altSet(k, q.Node)
			if err != nil {
				return nil, fmt.Errorf("core: vertex-induced query %v cannot be morphed for an edge-only engine: %w", q.Pattern, err)
			}
			delete(S, k)
			for _, m := range alt {
				S[m.key] = m.node
			}
			if ex != nil {
				cm := CandidateMorph{
					Parent:   "(forced: edge-only engine)",
					CostOut:  variantCost(q.Node, k.variant),
					Accepted: true,
					Removed: []ScoredPair{{
						Pattern: q.Node.Pattern.String(),
						Variant: variantString(k.variant),
						Cost:    variantCost(q.Node, k.variant),
					}},
				}
				for _, m := range alt {
					c := variantCost(m.node, m.key.variant)
					cm.CostIn += c
					cm.Added = append(cm.Added, ScoredPair{
						Pattern: m.node.Pattern.String(),
						Variant: variantString(m.key.variant),
						Cost:    c,
					})
				}
				ex.recordCandidate(cm)
			}
		}
	}

	// Materialize the mine list and mark morphed queries.
	keys := make([]pairKey, 0, len(S))
	sel.Mine = make([]Choice, 0, len(S))
	for k := range S {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmpPair)
	queryFrame := make(map[pairKey]*pattern.Pattern, len(sel.Queries))
	for _, q := range sel.Queries {
		k := pairKey{q.Node.ID, normVariant(q.Pattern)}
		if _, ok := queryFrame[k]; !ok {
			queryFrame[k] = q.Pattern
		}
	}
	for _, k := range keys {
		n := S[k]
		frame, ok := queryFrame[k]
		if !ok {
			frame = n.Pattern.Variant(k.variant)
		} else if frame.Induced() != k.variant {
			frame = frame.Variant(k.variant) // clique variant normalization
		}
		sel.byPair[k] = len(sel.Mine)
		sel.Mine = append(sel.Mine, Choice{Node: n, Variant: k.variant, Pattern: frame})
		sel.CostAfter += variantCost(n, k.variant)
	}
	for i := range sel.Queries {
		q := &sel.Queries[i]
		k := pairKey{q.Node.ID, normVariant(q.Pattern)}
		if _, direct := sel.byPair[k]; !direct {
			q.Morphed = true
		}
		// Only a query can be refused: the up-set of a superpattern lies
		// inside that of the member it was reached from.
		if ex != nil && q.Node.tooBig && !slices.Contains(ex.Unmorphable, q.Node.Pattern.String()) {
			ex.Unmorphable = append(ex.Unmorphable, q.Node.Pattern.String())
		}
	}
	return sel, nil
}

// normVariant normalizes clique variants (identical semantics) to
// edge-induced so pair keys are unique.
func normVariant(p *pattern.Pattern) pattern.Induced {
	if p.IsClique() {
		return pattern.EdgeInduced
	}
	return p.Induced()
}

func bestVariantNorm(n *Node, best func(*Node) pattern.Induced) pattern.Induced {
	if n.Pattern.IsClique() {
		return pattern.EdgeInduced
	}
	return best(n)
}

func cmpPair(a, b pairKey) int {
	return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.variant, b.variant))
}

func lessPair(a, b pairKey) bool { return cmpPair(a, b) < 0 }
