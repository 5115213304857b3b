package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"morphing/internal/aggr"
	"morphing/internal/canon"
	"morphing/internal/costmodel"
	"morphing/internal/dataset"
	"morphing/internal/graph"
	"morphing/internal/pattern"
)

// This file keeps pattern transformation as it was before the S-DAG became
// lazy — the eager closure and an Algorithm 1 that enumerates every subset
// at every parent — as the oracle the lazy path is compared against.

// eagerSDAG builds the complete S-DAG: every query's structure and,
// recursively, all of their same-size superpatterns up to the clique, with
// every parent and child link in place.
func eagerSDAG(t testing.TB, queries []*pattern.Pattern) *SDAG {
	t.Helper()
	d := &SDAG{nodes: map[uint64]*Node{}}
	var worklist []*Node
	for _, q := range queries {
		if n, fresh := d.intern(q); fresh {
			d.queries = append(d.queries, n)
			worklist = append(worklist, n)
		}
	}
	for len(worklist) > 0 {
		n := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		for _, ne := range n.Pattern.NonEdges() {
			super, err := n.Pattern.WithExtraEdge(ne[0], ne[1])
			if err != nil {
				t.Fatal(err)
			}
			sn, fresh := d.intern(super)
			if fresh {
				worklist = append(worklist, sn)
			}
			linked := false
			for _, p := range n.Parents {
				linked = linked || p == sn
			}
			if !linked {
				n.Parents = append(n.Parents, sn)
				sn.Children = append(sn.Children, n)
			}
		}
		n.expanded = true
	}
	return d
}

// eagerSelect is Algorithm 1 over a complete S-DAG, reading only the
// Parents and Children links: every parent of a member of S, every subset
// of its morphable children in S, no decline bound, and no running state
// for prices — every candidate recounts which trie levels the staying
// members occupy from S itself. It returns the final alternative set and
// the modeled set prices before and after.
func eagerSelect(d *SDAG, queries []*pattern.Pattern, cost CostFunc, policy Policy) (S map[pairKey]*Node, before, after float64) {
	memo := map[pairKey][]costmodel.Level{}
	levels := func(n *Node, v pattern.Induced) []costmodel.Level {
		if n.Pattern.IsClique() {
			v = pattern.EdgeInduced
		}
		k := pairKey{n.ID, v}
		if _, ok := memo[k]; !ok {
			memo[k] = cost(n, v, nil)
		}
		return memo[k]
	}
	variantCost := func(n *Node, v pattern.Induced) (alone float64) {
		for _, l := range levels(n, v) {
			alone += l.Cost
		}
		return alone
	}
	sorted := func(set map[pairKey]*Node) []pairKey {
		keys := make([]pairKey, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return cmpPair(keys[i], keys[j]) < 0 })
		return keys
	}
	// users counts, per level, the members of set occupying it.
	users := func(set map[pairKey]*Node, except map[pairKey]bool) map[uint64]int {
		out := map[uint64]int{}
		for k, n := range set {
			if !except[k] {
				for _, l := range levels(n, k.variant) {
					out[l.Key]++
				}
			}
		}
		return out
	}
	price := func(set map[pairKey]*Node) (total float64) {
		seen := map[uint64]bool{}
		for _, k := range sorted(set) {
			for _, l := range levels(set[k], k.variant) {
				if !seen[l.Key] {
					seen[l.Key] = true
					total += l.Cost
				}
			}
		}
		return total
	}
	bestVariant := func(n *Node) pattern.Induced {
		switch {
		case n.Pattern.IsClique() || policy == PolicyEdgeOnly:
			return pattern.EdgeInduced
		case policy == PolicyVertexOnly:
			return pattern.VertexInduced
		}
		if variantCost(n, pattern.VertexInduced) < variantCost(n, pattern.EdgeInduced) {
			return pattern.VertexInduced
		}
		return pattern.EdgeInduced
	}
	morphable := func(k pairKey, n *Node) bool {
		switch {
		case n.Pattern.IsClique():
			return false
		case policy == PolicyVertexOnly:
			return k.variant == pattern.EdgeInduced
		case policy == PolicyEdgeOnly:
			return k.variant == pattern.VertexInduced
		}
		return true
	}
	selfPair := func(k pairKey) pairKey {
		if policy == PolicyVertexOnly || policy == PolicyAny && k.variant == pattern.EdgeInduced {
			return pairKey{k.id, pattern.VertexInduced}
		}
		return pairKey{k.id, pattern.EdgeInduced}
	}
	altSet := func(k pairKey, n *Node) map[pairKey]*Node {
		out := map[pairKey]*Node{selfPair(k): n}
		stack, seen := []*Node{n}, map[uint64]bool{n.ID: true}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range cur.Parents {
				if !seen[p.ID] {
					seen[p.ID] = true
					stack = append(stack, p)
					out[pairKey{p.ID, bestVariant(p)}] = p
				}
			}
		}
		return out
	}

	S = map[pairKey]*Node{}
	for _, q := range queries {
		n := d.Node(q)
		S[pairKey{n.ID, normVariant(q)}] = n
	}
	before = price(S)
	for iter := 0; iter < 8*len(d.nodes)+32; iter++ {
		changed := false
		var parents []*Node
		seen := map[uint64]bool{}
		for _, n := range S {
			for _, p := range n.Parents {
				if !seen[p.ID] {
					seen[p.ID] = true
					parents = append(parents, p)
				}
			}
		}
		sortNodes(parents)
		for _, par := range parents {
			var kids []pairKey
			for _, c := range par.Children {
				for _, v := range []pattern.Induced{pattern.EdgeInduced, pattern.VertexInduced} {
					if k := (pairKey{c.ID, v}); S[k] != nil && morphable(k, c) {
						kids = append(kids, k)
					}
				}
			}
			sort.Slice(kids, func(i, j int) bool { return cmpPair(kids[i], kids[j]) < 0 })
			if len(kids) > maxSubset {
				kids = kids[:maxSubset]
			}
		masks:
			for mask := 1<<len(kids) - 1; mask >= 1; mask-- {
				inC := map[pairKey]bool{}
				structs := map[uint64]bool{}
				spc := map[pairKey]*Node{}
				var C []pairKey
				for b, k := range kids {
					if mask&(1<<b) == 0 {
						continue
					}
					if structs[k.id] {
						continue masks
					}
					structs[k.id], inC[k] = true, true
					C = append(C, k)
					for ak, an := range altSet(k, S[k]) {
						spc[ak] = an
					}
				}
				// Removed: the levels every user of which leaves with C,
				// credited where the last of them is visited. Added: the
				// levels of the incoming pairs that nothing staying occupies.
				all, stay := users(S, nil), users(S, inC)
				removed, left := 0.0, map[uint64]int{}
				for _, k := range C {
					for _, l := range levels(S[k], k.variant) {
						if left[l.Key]++; left[l.Key] == all[l.Key] {
							removed += l.Cost
						}
					}
				}
				added := 0.0
				for _, k := range sorted(spc) {
					if S[k] != nil && !inC[k] {
						continue
					}
					pair := 0.0
					for _, l := range levels(spc[k], k.variant) {
						if stay[l.Key] == 0 {
							stay[l.Key] = 1
							pair += l.Cost
						}
					}
					added += pair
				}
				if added < removed {
					for k := range inC {
						delete(S, k)
					}
					for k, n := range spc {
						S[k] = n
					}
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	if policy == PolicyEdgeOnly {
		for _, q := range queries {
			k := pairKey{d.Node(q).ID, normVariant(q)}
			if n := S[k]; n != nil && k.variant == pattern.VertexInduced {
				delete(S, k)
				for ak, an := range altSet(k, n) {
					S[ak] = an
				}
			}
		}
	}
	return S, before, price(S)
}

// randomConnected draws a connected pattern on n vertices — a random tree
// plus each remaining pair with probability density — labeled from
// numLabels labels (0: unlabeled), in a random variant.
func randomConnected(r *rand.Rand, n, numLabels int, density float64) *pattern.Pattern {
	var edges [][2]int
	has := map[[2]int]bool{}
	for v := 1; v < n; v++ {
		e := [2]int{r.Intn(v), v}
		edges, has[e] = append(edges, e), true
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !has[[2]int{u, v}] && r.Float64() < density {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	opts := []pattern.Option{pattern.WithInduced(pattern.Induced(r.Intn(2)))}
	if numLabels > 0 {
		labels := make([]int32, n)
		for i := range labels {
			labels[i] = int32(r.Intn(numLabels))
		}
		opts = append(opts, pattern.WithLabels(labels))
	}
	return pattern.MustNew(n, edges, opts...)
}

// TestLazySelectionEqualsEagerOracle is the selection-identity property:
// over random connected query sets (3-6 vertices, unlabeled and labeled
// with 1-4 labels), every policy, explain on and off, under the cost model
// at per-match cost 0 and |V|/1000 and under a table with frequent ties,
// the lazy S-DAG and Select return the alternative set, the morphed flags,
// the bit-equal modeled costs and (where the oracle matcher can afford the
// counts) the converted answers of the eager closure enumerated
// exhaustively. Half the sets are drawn densely from the 4-vertex lattice in
// both variants, where several morphs fire per iteration; a Select that
// looks only at the live children of a parent it processes fails on about
// one in sixteen of those.
func TestLazySelectionEqualsEagerOracle(t *testing.T) {
	g, err := dataset.ErdosRenyi(30, 5, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	model := costmodel.NewDefault(graph.Summarize(g))
	trials := 600
	if testing.Short() {
		trials = 150
	}
	r := rand.New(rand.NewSource(21))
	morphed, declined, counted := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		numLabels := r.Intn(5) // 0: unlabeled
		maxN := 6
		if numLabels > 1 {
			maxN = 5 // labeled closures grow fast; 6-vertex ones ride along unlabeled or with one label
		}
		queries := make([]*pattern.Pattern, 1+r.Intn(5))
		size := 3 + r.Intn(maxN-2)
		largest := size
		for i := range queries {
			if r.Intn(4) == 0 {
				size = 3 + r.Intn(maxN-2) // mostly one size per set: that is where alternative sets overlap
				largest = max(largest, size)
			}
			queries[i] = randomConnected(r, size, numLabels, []float64{0, 0.2, 0.5}[r.Intn(3)])
		}
		if trial%2 == 1 {
			// Dense in one small lattice, both variants: several morphs
			// fire per iteration and change what the next parent sees.
			shapes := fourPatterns(t)
			queries = make([]*pattern.Pattern, 3+r.Intn(6))
			for i := range queries {
				queries[i] = shapes[r.Intn(len(shapes))].Variant(pattern.Induced(r.Intn(2)))
			}
			largest = 4
		}
		var cost CostFunc
		switch trial / 2 % 3 {
		case 0:
			cost = DefaultCostFunc(model, 0)
		case 1:
			cost = DefaultCostFunc(model, float64(g.NumVertices())/1000)
		default:
			span := uint64([]int{2, 4, 1000}[r.Intn(3)])
			salt := r.Uint64()
			cost = additive(func(n *Node) Costs {
				h := (n.ID ^ salt) * 0x9e3779b97f4a7c15
				return Costs{E: float64(h >> 33 % span), V: float64(h >> 7 % span)}
			})
		}
		eager := eagerSDAG(t, queries)
		for _, policy := range []Policy{PolicyAny, PolicyVertexOnly, PolicyEdgeOnly} {
			wantS, wantBefore, wantAfter := eagerSelect(eager, queries, cost, policy)
			for _, explain := range []bool{false, true} {
				d, err := BuildSDAG(queries)
				if err != nil {
					t.Fatal(err)
				}
				sel, err := Select(context.Background(), d, queries, cost, policy, explain)
				if err != nil {
					t.Fatalf("trial %d policy %v: %v", trial, policy, err)
				}
				same := len(sel.Mine) == len(wantS) && sel.CostBefore == wantBefore && sel.CostAfter == wantAfter
				for _, c := range sel.Mine {
					same = same && wantS[pairKey{c.Node.ID, c.Variant}] != nil
				}
				for _, q := range sel.Queries {
					same = same && q.Morphed == (wantS[pairKey{q.Node.ID, normVariant(q.Pattern)}] == nil)
				}
				if !same {
					t.Fatalf("trial %d policy %v explain %v queries %v:\n lazy  %v (cost %v -> %v)\n eager %d pairs (cost %v -> %v)",
						trial, policy, explain, queries, sel.Mine, sel.CostBefore, sel.CostAfter, len(wantS), wantBefore, wantAfter)
				}
				if d.Materialized() > len(eager.nodes) {
					t.Fatalf("trial %d: lazy S-DAG built %d structures, the closure has %d", trial, d.Materialized(), len(eager.nodes))
				}
				if explain {
					continue
				}
				if sel.CostAfter < sel.CostBefore {
					morphed++
				} else {
					declined++
				}
				// Converted answers against the direct counts, where the
				// brute-force matcher can afford the mined set.
				if largest <= 4 && len(sel.Mine) <= 24 {
					vals, err := sel.Convert(aggr.Count{}, oracleCounts(g, sel))
					if err != nil {
						t.Fatalf("trial %d policy %v: Convert: %v", trial, policy, err)
					}
					for i, q := range queries {
						if got, want := vals[i].(uint64), oracleCount(g, q); got != want {
							t.Fatalf("trial %d policy %v query %v: converted %d, direct %d", trial, policy, q, got, want)
						}
					}
					counted++
				}
			}
		}
	}
	if morphed < trials/4 || declined < trials/4 || counted < trials/4 {
		t.Fatalf("%d selections morphed, %d declined, %d converted against counts: the property needs each in numbers", morphed, declined, counted)
	}
}

// TestRecordedSetsSelectAsEager: the query sets the experiments and the
// benchmark run — 4- and 5-motif counting, sc-mmap's p1:v p2:v p3, E8's
// 7-vertex pV9 and pV10 — under the policy of the engines that match both
// variants and of those that match edge-induced patterns only, priced on
// the MI and MG recipes: the lazy path selects what the eager closure
// enumerated exhaustively selects.
func TestRecordedSetsSelectAsEager(t *testing.T) {
	vertexInduced := func(ps []*pattern.Pattern) []*pattern.Pattern {
		out := make([]*pattern.Pattern, len(ps))
		for i, p := range ps {
			out[i] = p.AsVertexInduced()
		}
		return out
	}
	sets := map[string][]*pattern.Pattern{
		"sc":   {pattern.TailedTriangle().AsVertexInduced(), pattern.ChordalFourCycle().AsVertexInduced(), pattern.FourClique()},
		"pV9":  {pattern.DoubleDiamond().AsVertexInduced()},
		"pV10": {pattern.PenTriClique().AsVertexInduced()},
	}
	for k := 4; k <= 5; k++ {
		motifs, err := canon.AllConnectedPatterns(k)
		if err != nil {
			t.Fatal(err)
		}
		sets[fmt.Sprintf("%d-MC", k)] = vertexInduced(motifs)
	}
	for _, recipe := range []dataset.Recipe{dataset.MiCo().Scaled(0.004), dataset.MAG().Scaled(0.003)} {
		g, err := recipe.Generate()
		if err != nil {
			t.Fatal(err)
		}
		cost := DefaultCostFunc(costmodel.NewDefault(graph.Summarize(g)), 0)
		for name, queries := range sets {
			eager := eagerSDAG(t, queries)
			for _, policy := range []Policy{PolicyAny, PolicyEdgeOnly} {
				wantS, wantBefore, wantAfter := eagerSelect(eager, queries, cost, policy)
				d, err := BuildSDAG(queries)
				if err != nil {
					t.Fatal(err)
				}
				sel, err := Select(context.Background(), d, queries, cost, policy, false)
				if err != nil {
					t.Fatal(err)
				}
				same := len(sel.Mine) == len(wantS) && sel.CostBefore == wantBefore && sel.CostAfter == wantAfter
				for _, c := range sel.Mine {
					same = same && wantS[pairKey{c.Node.ID, c.Variant}] != nil
				}
				if !same {
					t.Errorf("%s on %s, policy %v: lazy %v (cost %v -> %v), eager %d pairs (cost %v -> %v)",
						name, recipe.Name, policy, sel.Mine, sel.CostBefore, sel.CostAfter, len(wantS), wantBefore, wantAfter)
				}
			}
		}
	}
}
