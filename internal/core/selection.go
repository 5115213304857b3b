package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

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

// CostFunc prices mining n's structure in variant v as the levels of the
// merged trie the pattern occupies (costmodel.Level), appended to dst: the
// executor mines a set of patterns as one trie, so a set costs the sum over
// its distinct level keys and a pattern joining a set pays only for the
// levels nothing scheduled holds yet. A table of independent per-pattern
// costs is the special case of one level per pair under a key of its own.
type CostFunc func(n *Node, v pattern.Induced, dst []costmodel.Level) []costmodel.Level

// DefaultCostFunc builds a CostFunc from the §5.2 cost model: the levels
// of the pattern's default plan, expected matches times the per-match
// aggregation cost on the last.
func DefaultCostFunc(model *costmodel.Model, perMatchCost float64) CostFunc {
	return func(n *Node, v pattern.Induced, dst []costmodel.Level) []costmodel.Level {
		p := n.Pattern // the edge-induced representative
		if v == pattern.VertexInduced {
			p = p.AsVertexInduced()
		}
		out, err := model.PatternLevels(p, perMatchCost, dst)
		if err != nil {
			// Connected patterns never fail plan building. An infinite
			// price is a model fault: Select keeps the queries as they are.
			return append(dst, costmodel.Level{Key: n.ID ^ uint64(v)<<63, Cost: math.Inf(1)})
		}
		return out
	}
}

// member is one (structure, variant) of a working alternative set.
type member struct {
	node *Node
	key  pairKey
}

// sortMembers orders ms by pair and drops repeated pairs, in place.
func sortMembers(ms []member) []member {
	slices.SortFunc(ms, func(a, b member) int { return cmpPair(a.key, b.key) })
	return slices.CompactFunc(ms, func(a, b member) bool { return a.key == b.key })
}

// priced is one (structure, variant) as the cost function sees it: the
// trie levels it occupies (a span of Select's slab, root first) and their
// sum, the pair mined on its own.
type priced struct {
	off, n int32
	alone  float64
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
	// only; zero otherwise): its marginal price inside the selected set
	// and its expected matches. Calibration divides EstMatches by the
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

	// CostBefore/CostAfter are the model's prices for the original query
	// set and the selected alternative set, each mined as one trie: every
	// distinct level once (diagnostics and Fig. 15e).
	CostBefore, CostAfter float64

	// Explain is the Algorithm 1 trace, recorded only when Select was
	// asked to explain; nil otherwise.
	Explain *SelectionExplain

	byPair map[pairKey]int // pair -> index into Mine
}

// maxSubset caps the size of children subsets enumerated per parent
// (Algorithm 1 line 6).
const maxSubset = 12

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
// set it declines costs its queries' prices and nothing else. A level
// price that is NaN, infinite or negative is a fault of the cost function,
// and Select fails closed on it: no comparison decides, the queries are
// mined as they are (but for the morphs an edge-only engine cannot do
// without), and SelectionExplain.CostFault says why. Generating
// superpatterns polls ctx: a cancelled or expired context ends Select with
// the typed engine error. explain records the selection trace (every node
// cost and every candidate morph scored) in Selection.Explain: selection
// then allocates trace entries but expands the same S-DAG and takes the
// same decisions.
func Select(ctx context.Context, d *SDAG, queries []*pattern.Pattern, cost CostFunc, policy Policy, explain bool) (*Selection, error) {
	sel := &Selection{SDAG: d, Policy: policy}
	if len(queries) == 0 {
		return sel, nil
	}

	var ex *SelectionExplain
	if explain {
		ex = &SelectionExplain{}
		sel.Explain = ex
	}

	// Both variants of a structure are priced on its first consultation.
	// Trace entries append on the memoization miss, so their order follows
	// the algorithm's (fully deterministic) first consultation of each
	// structure. The variants of a clique are the same pattern: one price.
	baseCosts := make(map[uint64][2]priced, len(queries))
	slab := make([]costmodel.Level, 0, 8*len(queries))
	var fault string // the first price no model can mean
	nodeCost := func(n *Node) [2]priced {
		c, ok := baseCosts[n.ID]
		if !ok {
			for v := range c {
				if v == int(pattern.VertexInduced) && n.Pattern.IsClique() {
					c[v] = c[pattern.EdgeInduced]
					break
				}
				c[v].off = int32(len(slab))
				slab = cost(n, pattern.Induced(v), slab)
				c[v].n = int32(len(slab)) - c[v].off
				for _, l := range slab[c[v].off:] {
					c[v].alone += l.Cost
					if !(l.Cost >= 0 && l.Cost <= math.MaxFloat64) && fault == "" {
						fault = fmt.Sprintf("%v %s: level cost %v", n.Pattern, variantString(pattern.Induced(v)), l.Cost)
					}
				}
			}
			baseCosts[n.ID] = c
			if ex != nil {
				ex.NodeCosts = append(ex.NodeCosts, NodeCost{
					ID: n.ID, Pattern: n.Pattern.String(), CostE: c[0].alone, CostV: c[1].alone,
				})
			}
		}
		return c
	}
	levelsOf := func(n *Node, v pattern.Induced) []costmodel.Level {
		c := nodeCost(n)[v]
		return slab[c.off : c.off+c.n]
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
			if c := nodeCost(n); c[pattern.VertexInduced].alone < c[pattern.EdgeInduced].alone {
				return pattern.VertexInduced
			}
			return pattern.EdgeInduced
		}
	}

	// S: the working alternative set, keyed by (structure, variant).
	S := make(map[pairKey]*Node, len(queries))

	sel.Queries = make([]Query, 0, len(queries))
	for i, q := range queries {
		n := d.Node(q)
		if n == nil {
			return nil, fmt.Errorf("core: query %d (%v) missing from S-DAG", i, q)
		}
		sel.Queries = append(sel.Queries, Query{Pattern: q, Node: n})
		S[pairKey{n.ID, normVariant(q)}] = n
	}

	// ref counts, per trie level, the members of S that occupy it: the
	// merged trie of S, never built. setPrice recounts it from S and
	// returns what S costs — every distinct level once, in pair order.
	ref := make(map[uint64]int32, 4*len(S))
	var set []member // S in pair order, as of the last setPrice
	setPrice := func() (total float64) {
		set = set[:0]
		for k, n := range S {
			set = append(set, member{node: n, key: k})
		}
		set = sortMembers(set)
		clear(ref)
		for _, m := range set {
			for _, l := range levelsOf(m.node, m.key.variant) {
				if ref[l.Key]++; ref[l.Key] == 1 {
					total += l.Cost
				}
			}
		}
		return total
	}
	sel.CostBefore = setPrice()
	sel.CostAfter = sel.CostBefore

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
	// — distinct pairs, as C never holds both variants of a structure — and
	// a pair's last level is its own: no other plan ends on it, so what C
	// adds costs at least its selfPairs' last levels, those not in S.
	// Removing C credits the levels all of whose occupants are in C, which
	// is at most each member's levels split evenly among their occupants
	// (ub: a level with r occupants is credited only if all r leave, each
	// carrying cost/r). So if no member's selfPair is in S and each one's
	// last level costs at least its member's ub, added >= removed: a parent
	// with no live child has all 2^k candidates rejected, and superpatterns
	// are generated above live members only. (The factor absorbs the
	// rounding of the divisions.)
	live := func(c member) bool {
		self := selfPair(c.key)
		if _, in := S[self]; in {
			return true
		}
		pc := nodeCost(c.node)
		own, other := pc[c.key.variant], pc[self.variant]
		last, ub := slab[other.off+other.n-1].Cost, own.alone
		if last < ub { // else not even with its levels to itself
			ub = 0
			for _, l := range slab[own.off : own.off+own.n] {
				ub += l.Cost / float64(ref[l.Key])
			}
		}
		return last < ub*(1+1e-9)
	}

	// score prices replacing C by the pairs of adds that are not staying
	// members of S: removed is the levels only members of C occupy, added
	// the levels of adds nothing staying occupies (a level C gives up and
	// adds takes back counts on both sides). paid, when not nil, receives
	// per pair of adds its marginal price and how many of its levels were
	// already there.
	gone := map[uint64]int32{}
	score := func(C, adds []member, inC map[pairKey]bool, paid func(i int, cost float64, shared int)) (removed, added float64) {
		clear(gone)
		for _, c := range C {
			for _, l := range levelsOf(c.node, c.key.variant) {
				if gone[l.Key]++; gone[l.Key] == ref[l.Key] {
					removed += l.Cost
				}
			}
		}
		for i, m := range adds {
			if _, in := S[m.key]; in && !inC[m.key] {
				continue // already scheduled and staying: free
			}
			cost, shared := 0.0, 0
			for _, l := range levelsOf(m.node, m.key.variant) {
				if ref[l.Key] != gone[l.Key] {
					shared++
					continue
				}
				gone[l.Key] = -1 // paid for: held from here on
				cost += l.Cost
			}
			added += cost
			if paid != nil {
				paid(i, cost, shared)
			}
		}
		return removed, added
	}
	// replace applies a scored morph to S and ref.
	morphed := false
	replace := func(C, adds []member) {
		morphed = true
		for _, c := range C {
			delete(S, c.key)
			for _, l := range levelsOf(c.node, c.key.variant) {
				ref[l.Key]--
			}
		}
		for _, m := range adds {
			if _, in := S[m.key]; !in {
				S[m.key] = m.node
				for _, l := range levelsOf(m.node, m.key.variant) {
					ref[l.Key]++
				}
			}
		}
	}
	// trace records a scored morph, before it is applied (explain only).
	trace := func(iter int, parent string, C, adds []member, inC map[pairKey]bool, accepted bool) {
		cm := CandidateMorph{Iter: iter, Parent: parent, Accepted: accepted}
		for _, c := range C {
			cm.Removed = append(cm.Removed, ScoredPair{
				Pattern: c.node.Pattern.String(),
				Variant: variantString(c.key.variant),
				Cost:    nodeCost(c.node)[c.key.variant].alone,
			})
		}
		for _, m := range adds {
			_, staying := S[m.key]
			cm.Added = append(cm.Added, ScoredPair{
				Pattern: m.node.Pattern.String(),
				Variant: variantString(m.key.variant),
				Free:    staying && !inC[m.key],
			})
		}
		cm.CostOut, cm.CostIn = score(C, adds, inC, func(i int, cost float64, shared int) {
			cm.Added[i].Cost, cm.Added[i].Shared = cost, shared
		})
		ex.recordCandidate(cm)
	}
	var C, adds []member
	inC := map[pairKey]bool{}

	// Algorithm 1 main loop. A candidate morph replaces a subset C of
	// S with the union of its members' alternative sets; it is
	// accepted when the total modeled mining cost of S strictly
	// decreases (pairs already in S are free additions, removed pairs
	// credit their full cost). Strict decrease over a finite
	// configuration space guarantees convergence without the paper's
	// explicit cost-zeroing bookkeeping, while preserving its effect:
	// already-scheduled patterns make overlapping morphs cheap.
	for iter := 0; fault == "" && iter < 8*len(d.nodes)+32; iter++ {
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
		for pi := 0; fault == "" && pi < len(parents); pi++ {
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
			slices.SortFunc(kids, func(a, b member) int { return cmpPair(a.key, b.key) })
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
				C, adds = C[:0], adds[:0]
				clear(inC)
				for b := range kids {
					if mask&(1<<b) != 0 {
						C = append(C, kids[b])
						inC[kids[b].key] = true
						adds = append(adds, alts[b]...)
					}
				}
				// Replacing both variants of one structure at once is
				// never meaningful: each one's alternative set re-adds
				// the other.
				if slices.ContainsFunc(C, func(c member) bool { return inC[pairKey{c.key.id, 1 - c.key.variant}] }) {
					continue
				}
				adds = sortMembers(adds)
				removed, added := score(C, adds, inC, nil)
				if fault != "" {
					break
				}
				if ex != nil {
					trace(iter, par.Pattern.String(), C, adds, inC, added < removed)
				}
				if added < removed {
					replace(C, adds)
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

	// A faulty price may have decided morphs before it was met: undo them.
	if fault != "" {
		clear(S)
		for _, q := range sel.Queries {
			S[pairKey{q.Node.ID, normVariant(q.Pattern)}] = q.Node
		}
		morphed = false
		sel.CostAfter = setPrice()
		if ex != nil {
			ex.CostFault = fault
		}
	}

	// PolicyEdgeOnly must morph non-clique vertex-induced queries even if
	// the model disfavors it: the engine cannot mine them at all (a
	// baseline run without morphing refuses them in Runner.transformPolicy).
	if policy == PolicyEdgeOnly {
		for _, q := range sel.Queries {
			k := pairKey{q.Node.ID, normVariant(q.Pattern)}
			if k.variant != pattern.VertexInduced {
				continue
			}
			if _, in := S[k]; !in {
				continue
			}
			alt, err := altSet(k, q.Node)
			if err != nil {
				return nil, fmt.Errorf("core: vertex-induced query %v cannot be morphed for an edge-only engine: %w", q.Pattern, err)
			}
			C, adds, inC := []member{{q.Node, k}}, sortMembers(alt), map[pairKey]bool{k: true}
			if ex != nil {
				trace(0, "(forced: edge-only engine)", C, adds, inC, true)
			}
			replace(C, adds)
		}
	}

	if morphed {
		sel.CostAfter = setPrice()
	}
	sel.setMine(set)
	if ex != nil {
		for _, q := range sel.Queries {
			// Only a query can be refused: the up-set of a superpattern
			// lies inside that of the member it was reached from.
			if q.Node.tooBig && !slices.Contains(ex.Unmorphable, q.Node.Pattern.String()) {
				ex.Unmorphable = append(ex.Unmorphable, q.Node.Pattern.String())
			}
		}
	}
	return sel, nil
}

// setMine makes the pairs ms, in the order given, the set sel mines, and
// marks every query the set does not hold as morphed. A pair a query names
// is mined in that query's frame (the first such query's object, in the
// edge-induced variant for a clique); any other pair in its structure's
// canonical representative.
func (sel *Selection) setMine(ms []member) {
	queryFrame := make(map[pairKey]*pattern.Pattern, len(sel.Queries))
	for _, q := range sel.Queries {
		k := pairKey{q.Node.ID, normVariant(q.Pattern)}
		if _, ok := queryFrame[k]; !ok {
			queryFrame[k] = q.Pattern
		}
	}
	sel.Mine = make([]Choice, 0, len(ms))
	sel.byPair = make(map[pairKey]int, len(ms))
	for _, m := range ms {
		frame, ok := queryFrame[m.key]
		if !ok {
			frame = m.node.Pattern.Variant(m.key.variant)
		} else if frame.Induced() != m.key.variant {
			frame = frame.Variant(m.key.variant) // clique variant normalization
		}
		sel.byPair[m.key] = len(sel.Mine)
		sel.Mine = append(sel.Mine, Choice{Node: m.node, Variant: m.key.variant, Pattern: frame})
	}
	for i := range sel.Queries {
		q := &sel.Queries[i]
		_, direct := sel.byPair[pairKey{q.Node.ID, normVariant(q.Pattern)}]
		q.Morphed = !direct
	}
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
