// Package plan turns patterns into exploration plans: a matching order
// plus, per level, the earlier levels to intersect (regular edges), the
// earlier levels to subtract (anti-edges, whether variant-derived or
// explicit), and the symmetry-breaking partial orders that guarantee each
// subgraph is found exactly once. Every engine consumes these plans; what differs per
// engine is how orders are chosen and how the plan is executed.
package plan

import (
	"fmt"
	"slices"

	"morphing/internal/canon"
	"morphing/internal/pattern"
)

// Plan is an executable exploration plan for one pattern. Level i binds
// pattern vertex Order[i]; all index slices refer to levels, not pattern
// vertices.
type Plan struct {
	Pattern *pattern.Pattern
	Order   []int // Order[i] = pattern vertex bound at level i

	// Connect[i] lists the levels j < i whose bound vertex is a pattern
	// neighbor of Order[i]: candidates are the intersection of their
	// adjacency lists. Connect[0] is empty; Connect[i] is non-empty for
	// i > 0 because orders are connected.
	Connect [][]int

	// Disconnect[i] lists the levels j < i whose bound vertex is an
	// anti-neighbor of Order[i] (variant-derived or explicit anti-edges):
	// their adjacency lists are subtracted from the candidates.
	Disconnect [][]int

	// Greater[i] / Smaller[i] list levels j < i whose bound data vertex
	// the level-i candidate must exceed / stay below. They encode the
	// symmetry-breaking conditions, each enforced at the later endpoint's
	// level.
	Greater [][]int
	Smaller [][]int

	// Conditions are the raw symmetry-breaking pairs (a,b) in pattern-
	// vertex terms, meaning match[a] < match[b].
	Conditions [][2]int

	// Class[i] is level i's class, the plan's facts about it; what the level
	// runs in a pass is the op Lower makes of it.
	Class []Class

	// Counting is CountingOps, memoized with the plan's shape by BuildAut:
	// what the cost model prices. Other plans leave it nil.
	Counting []Op
}

// Build creates a plan using the default degree-greedy connected order.
func Build(p *pattern.Pattern) (*Plan, error) {
	pl, _, err := BuildAut(p)
	if err != nil {
		return nil, err
	}
	return &pl, nil
}

// BuildAut is Build together with |Aut(p)|. Order, symmetry conditions and
// level classes read p's labels only through which vertices share one and
// which have none, so all are computed once per process for each shape
// (shapeKey) and the plan returned is the shape's, bound to p: its slices
// are shared by every plan of the shape and must not be written. An FSM
// level — hundreds of labelings of a handful of shapes — is priced
// (costmodel.PatternLevels) and planned (engine.Model.PlanPattern) from the
// same few entries.
func BuildAut(p *pattern.Pattern) (Plan, int, error) {
	key := shapeOf(p)
	s, ok := shapes.Get(key)
	if !ok {
		conds, aut := symmetry(p)
		pl, err := BuildWithConditions(p, DefaultOrder(p), conds)
		if err != nil {
			return Plan{}, 0, err
		}
		pl.Counting = pl.CountingOps(nil)
		s = shapePlan{pl, aut}
		shapes.Put(key, s)
	}
	pl := *s.plan
	pl.Pattern = p
	return pl, s.aut, nil
}

// shapeKey is everything Build reads of a pattern: the numbered structure,
// the matching semantics, which vertices carry equal labels (each label
// replaced by the index of its first occurrence) and which carry none.
type shapeKey struct {
	n, induced uint8
	adj, anti  [pattern.MaxVertices]uint16
	class      [pattern.MaxVertices]uint8
}

type shapePlan struct {
	plan *Plan
	aut  int
}

// shapes is bounded like canon's memos: a resident process fed ever new
// shapes recycles it a generation at a time.
var shapes canon.Memo[shapeKey, shapePlan]

func shapeOf(p *pattern.Pattern) shapeKey {
	s := shapeKey{n: uint8(p.N()), induced: uint8(p.Induced())}
	for i := 0; i < p.N(); i++ {
		s.adj[i], s.anti[i], s.class[i] = p.NeighborMask(i), p.AntiMask(i), uint8(i)
		if p.Label(i) == pattern.Unlabeled {
			s.class[i] = pattern.MaxVertices // no label: apart from every labeled vertex
		}
		for j := 0; j < i; j++ {
			if p.Label(j) == p.Label(i) {
				s.class[i] = s.class[j]
				break
			}
		}
	}
	return s
}

// BuildWithOrder creates a plan for an explicit matching order, which must
// be a permutation of the pattern vertices with every non-initial vertex
// adjacent to an earlier one.
func BuildWithOrder(p *pattern.Pattern, order []int) (*Plan, error) {
	return BuildWithConditions(p, order, SymmetryConditions(p))
}

// BuildWithConditions is BuildWithOrder with precomputed symmetry-breaking
// conditions, for callers that evaluate many orders of the same pattern
// (the conditions depend only on the pattern, not the order).
func BuildWithConditions(p *pattern.Pattern, order []int, conds [][2]int) (*Plan, error) {
	n := p.N()
	if !p.IsConnected() {
		return nil, fmt.Errorf("plan: pattern %v is disconnected", p)
	}
	if len(order) != n {
		return nil, fmt.Errorf("plan: order length %d for %d vertices", len(order), n)
	}
	var seen [pattern.MaxVertices]bool
	for i, u := range order {
		if u < 0 || u >= n || seen[u] {
			return nil, fmt.Errorf("plan: order %v is not a permutation", order)
		}
		seen[u] = true
		if i > 0 {
			connected := false
			for j := 0; j < i; j++ {
				if p.HasEdge(u, order[j]) {
					connected = true
					break
				}
			}
			if !connected {
				return nil, fmt.Errorf("plan: order %v disconnects at position %d", order, i)
			}
		}
	}

	pl := &Plan{
		Pattern:    p,
		Order:      append([]int(nil), order...),
		Connect:    make([][]int, n),
		Disconnect: make([][]int, n),
		Greater:    make([][]int, n),
		Smaller:    make([][]int, n),
		Conditions: conds,
	}
	// One backing for every Connect and Disconnect list, each pair of levels
	// in at most one of them, and then for the classes' Bound lists.
	lists := make([]int, 0, n*(n-1))
	var levelOf [pattern.MaxVertices]int
	for i, u := range order {
		levelOf[u] = i
		at := len(lists)
		for j := 0; j < i; j++ {
			if p.HasEdge(u, order[j]) {
				lists = append(lists, j)
			}
		}
		pl.Connect[i], at = lists[at:len(lists):len(lists)], len(lists)
		for j := 0; j < i; j++ {
			if !p.HasEdge(u, order[j]) && p.IsAntiEdge(u, order[j]) {
				lists = append(lists, j)
			}
		}
		pl.Disconnect[i] = lists[at:len(lists):len(lists)]
	}
	for _, c := range pl.Conditions {
		la, lb := levelOf[c[0]], levelOf[c[1]] // require match[c0] < match[c1]
		if la < lb {
			pl.Greater[lb] = append(pl.Greater[lb], la)
		} else {
			pl.Smaller[la] = append(pl.Smaller[la], lb)
		}
	}
	pl.classify(lists)
	return pl, nil
}

// DefaultOrder returns the degree-greedy connected matching order: start
// at a maximum-degree vertex, then repeatedly bind the vertex with the
// most edges to already-bound vertices (ties broken by degree, then
// index). This is the classic pattern-aware heuristic: dense prefixes
// shrink candidate sets early.
func DefaultOrder(p *pattern.Pattern) []int {
	n := p.N()
	order := make([]int, 0, n)
	placed := make([]bool, n)
	start := 0
	for v := 1; v < n; v++ {
		if p.Degree(v) > p.Degree(start) {
			start = v
		}
	}
	order = append(order, start)
	placed[start] = true
	for len(order) < n {
		// Explicit lexicographic comparison (back edges, then degree, then
		// lowest index). A packed integer key is tempting but collides when
		// one criterion's range bleeds into the next's decade, and a
		// collision here makes the order — and everything built on it,
		// including multi-pattern trie merging — depend on scan direction.
		best, bestBack, bestDeg := -1, -1, -1
		for v := 0; v < n; v++ {
			if placed[v] {
				continue
			}
			back := 0
			for _, u := range order {
				if p.HasEdge(v, u) {
					back++
				}
			}
			deg := p.Degree(v)
			if back > bestBack || back == bestBack && deg > bestDeg {
				best, bestBack, bestDeg = v, back, deg
			}
		}
		order = append(order, best)
		placed[best] = true
	}
	return order
}

// ConnectedOrders enumerates up to max connected matching orders of p
// (all of them if max <= 0), start vertex by start vertex, depth first. A
// cap is spread over the start vertices — each takes an equal share of
// what the ones before it left — so a capped search still starts at every
// vertex. Engines that pick orders by cost model (GraphPi) evaluate these.
func ConnectedOrders(p *pattern.Pattern, max int) [][]int {
	n := p.N()
	var out [][]int
	cur := make([]int, 1, n)
	used := make([]bool, n)
	limit := 0
	var dfs func()
	dfs = func() {
		if max > 0 && len(out) >= limit {
			return
		}
		if len(cur) == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for v := 0; v < n; v++ {
			if used[v] || !slices.ContainsFunc(cur, func(u int) bool { return p.HasEdge(v, u) }) {
				continue
			}
			used[v] = true
			cur = append(cur, v)
			dfs()
			cur = cur[:len(cur)-1]
			used[v] = false
		}
	}
	for s := 0; s < n; s++ {
		limit = len(out) + (max-len(out))/(n-s)
		cur[0], used[s] = s, true
		dfs()
		used[s] = false
	}
	return out
}

// SymmetryConditions computes Grochow-Kellis symmetry-breaking partial
// orders [18]: a set of pairs (a,b) requiring match[a] < match[b] such
// that exactly one embedding per automorphism class of each subgraph
// satisfies all pairs. The empty set is returned for asymmetric patterns.
func SymmetryConditions(p *pattern.Pattern) [][2]int {
	conds, _ := symmetry(p)
	return conds
}

// symmetry walks the stabilizer chain Aut(p) ⊇ Stab(0) ⊇ Stab(0,1) ⊇ …:
// each vertex the remaining group still moves is ordered below the rest of
// its orbit and then fixed. The orbit sizes multiply to |Aut(p)|
// (orbit-stabilizer), the second result.
func symmetry(p *pattern.Pattern) (conds [][2]int, aut int) {
	aut = 1
	for v := 0; v < p.N(); v++ {
		orbit := canon.Orbit(p, v)
		for _, w := range orbit[1:] {
			conds = append(conds, [2]int{v, w})
		}
		aut *= len(orbit)
	}
	return conds, aut
}
