// Package canon provides exact canonical labeling, automorphism groups and
// subgraph-isomorphism enumeration for patterns. It is the from-scratch
// replacement for the Bliss library [29] used by the paper: patterns get a
// stable 64-bit ID that uniquely identifies their structure (and labels),
// and the isomorphism machinery backs both the morphing algebra (the
// phi(p,q) permutation sets of Eq. 1/2) and symmetry breaking in the
// matching planners.
//
// All algorithms are exact. Pattern sizes are tiny (the paper evaluates up
// to 7 vertices, the package accepts up to pattern.MaxVertices), so an
// equitable-refinement-guided permutation search is both simple and fast.
package canon

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"slices"
	"sort"
	"strconv"

	"morphing/internal/pattern"
)

// CanonicalPerm returns a vertex ordering ord such that placing old vertex
// ord[i] at position i yields the canonical form of p: the lexicographically
// smallest (label, back-adjacency) sequence among all orderings. Two
// patterns are isomorphic (labels included, semantics ignored) iff their
// canonical forms are Equal up to the induced flag.
//
// The returned slice is memoized and shared — treat it as read-only.
func CanonicalPerm(p *pattern.Pattern) []int { return canonical(p).ord }

// form is everything derived from one pattern's canonical labeling. It is
// computed once per exact pattern and shared by CanonicalPerm,
// Canonicalize, StructureID and ID.
type form struct {
	ord []int  // CanonicalPerm
	id  uint64 // StructureID
}

func canonical(p *pattern.Pattern) form {
	key := exactKey(p)
	if f, ok := formMemo.Get(key); ok {
		return f
	}
	ord := canonicalPerm(p)
	c := permuted(p, ord)
	f := form{ord: ord, id: hashForm(c)}
	formMemo.Put(key, f)
	// A canonical form is its own canonical form, and callers come back
	// with it (fsm.extend hands its candidates to core.BuildSDAG): file it
	// under the identity so that it is not searched again.
	ident := make([]int, len(ord))
	for i := range ident {
		ident[i] = i
	}
	formMemo.Put(exactKey(c), form{ord: ident, id: f.id})
	return f
}

func permuted(p *pattern.Pattern, ord []int) *pattern.Pattern {
	q, err := p.Permute(ord)
	if err != nil {
		// canonicalPerm always returns a valid permutation.
		panic("canon: internal error: " + err.Error())
	}
	return q
}

func canonicalPerm(p *pattern.Pattern) []int {
	n := p.N()
	cells := refine(p)

	// cellOf[v] = index of v's refinement cell; orderings must list cells
	// in order, which both prunes the search and keeps it deterministic.
	cellOf := make([]int, n)
	for ci, cell := range cells {
		for _, v := range cell {
			cellOf[v] = ci
		}
	}

	var (
		best     []int
		bestCode []uint32
		cur      = make([]int, 0, n)
		curCode  = make([]uint32, 0, 3*n)
		used     = make([]bool, n)
		explicit = p.HasExplicitAntiEdges()
	)

	var dfs func(pos int)
	dfs = func(pos int) {
		if pos == n {
			if best == nil || lessCode(curCode, bestCode) {
				best = append(best[:0], cur...)
				bestCode = append(bestCode[:0], curCode...)
			}
			return
		}
		// Candidates: unused vertices of the earliest cell that still has
		// unused members (cells must appear in order). A candidate that is a
		// twin of one already tried here is skipped: exchanging the two is an
		// automorphism that fixes the prefix, so its subtree repeats the
		// other's codes and cannot hold a smaller one. Without this a star
		// or a clique costs a factorial of its interchangeable vertices.
		target := -1
		cands := sortedCandidates(cells, used)
		for ci, v := range cands {
			if target == -1 {
				target = cellOf[v]
			}
			if cellOf[v] != target {
				break
			}
			if slices.ContainsFunc(cands[:ci], func(u int) bool { return twins(p, u, v) }) {
				continue
			}
			used[v] = true
			cur = append(cur, v)
			var backBits, antiBits uint32
			for j := 0; j < pos; j++ {
				if p.HasEdge(v, cur[j]) {
					backBits |= 1 << uint(j)
				}
				if explicit && p.AntiMask(v)&(1<<uint(cur[j])) != 0 {
					antiBits |= 1 << uint(j)
				}
			}
			curCode = append(curCode, uint32(p.Label(v)), backBits, antiBits)
			if best == nil || !greaterPrefix(curCode, bestCode) {
				dfs(pos + 1)
			}
			curCode = curCode[:len(curCode)-3]
			cur = cur[:len(cur)-1]
			used[v] = false
		}
	}
	dfs(0)
	return best
}

// twins reports whether exchanging u and v, every other vertex fixed, is
// an automorphism of p: same label, same neighbors and anti-neighbors
// apart from each other.
func twins(p *pattern.Pattern, u, v int) bool {
	bu, bv := uint16(1)<<uint(u), uint16(1)<<uint(v)
	return p.Label(u) == p.Label(v) &&
		p.NeighborMask(u)&^bv == p.NeighborMask(v)&^bu &&
		p.AntiMask(u)&^bv == p.AntiMask(v)&^bu
}

// sortedCandidates lists unused vertices in cell order (cells are already
// emitted in canonical order by refine; vertices inside a cell are sorted).
func sortedCandidates(cells [][]int, used []bool) []int {
	var out []int
	for _, cell := range cells {
		for _, v := range cell {
			if !used[v] {
				out = append(out, v)
			}
		}
	}
	return out
}

func lessCode(a, b []uint32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// greaterPrefix reports whether a (a strict prefix-length code) is already
// strictly greater than the corresponding prefix of best, in which case the
// whole subtree can be pruned.
func greaterPrefix(a, best []uint32) bool {
	for i := range a {
		if a[i] != best[i] {
			return a[i] > best[i]
		}
	}
	return false
}

// refine computes an equitable ordered partition of p's vertices (1-D
// Weisfeiler-Leman): vertices are grouped by (label, degree) and cells are
// split until every vertex in a cell has the same multiset of neighbor
// cells. The cell order is a deterministic isomorphism invariant.
func refine(p *pattern.Pattern) [][]int {
	n := p.N()
	// sig[v] is a string invariant; iterate to a fixed point. Cells are
	// ordered by these strings, so their bytes are part of the canonical
	// form: "L<label> D<degree> A<anti-degree>", then per round
	// "<own>|[<sorted neighbor sigs, space-separated>]".
	sig := make([]string, n)
	var buf []byte
	for v := 0; v < n; v++ {
		antiDeg := 0
		if p.HasExplicitAntiEdges() {
			antiDeg = bits.OnesCount16(p.AntiMask(v))
		}
		buf = append(buf[:0], 'L')
		buf = strconv.AppendInt(buf, int64(p.Label(v)), 10)
		buf = append(buf, " D"...)
		buf = strconv.AppendInt(buf, int64(p.Degree(v)), 10)
		buf = append(buf, " A"...)
		buf = strconv.AppendInt(buf, int64(antiDeg), 10)
		sig[v] = string(buf)
	}
	nb := make([]string, 0, n)
	for iter := 0; iter < n; iter++ {
		next := make([]string, n)
		for v := 0; v < n; v++ {
			nb = nb[:0]
			for u := 0; u < n; u++ {
				if p.HasEdge(v, u) {
					nb = append(nb, sig[u])
				}
			}
			sort.Strings(nb)
			buf = append(append(buf[:0], sig[v]...), '|', '[')
			for i, s := range nb {
				if i > 0 {
					buf = append(buf, ' ')
				}
				buf = append(buf, s...)
			}
			next[v] = string(append(buf, ']'))
		}
		if sameClasses(sig, next) {
			break
		}
		sig = next
	}
	byClass := map[string][]int{}
	for v := 0; v < n; v++ {
		byClass[sig[v]] = append(byClass[sig[v]], v)
	}
	keys := make([]string, 0, len(byClass))
	for k := range byClass {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cells := make([][]int, 0, len(keys))
	for _, k := range keys {
		vs := byClass[k]
		sort.Ints(vs)
		cells = append(cells, vs)
	}
	return cells
}

func sameClasses(a, b []string) bool {
	// Two labelings induce the same partition iff equality of a-values
	// coincides with equality of b-values for every vertex pair.
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			if (a[i] == a[j]) != (b[i] == b[j]) {
				return false
			}
		}
	}
	return true
}

// Canonicalize returns the canonical form of p (same induced semantics).
func Canonicalize(p *pattern.Pattern) *pattern.Pattern {
	c, _ := Canonical(p)
	return c
}

// Canonical is Canonicalize and StructureID in one lookup. A pattern that
// is its own canonical form is returned as it is, not copied.
func Canonical(p *pattern.Pattern) (*pattern.Pattern, uint64) {
	f := canonical(p)
	for i, v := range f.ord {
		if v != i {
			return permuted(p, f.ord), f.id
		}
	}
	return p, f.id
}

// StructureID returns a 64-bit identifier of the pattern's structure and
// labels, invariant under vertex renumbering and independent of the
// edge/vertex-induced flag. Isomorphic patterns share the ID; distinct
// small patterns collide only with cryptographically negligible FNV
// probability.
func StructureID(p *pattern.Pattern) uint64 { return canonical(p).id }

// hashForm hashes the canonical form c.
func hashForm(c *pattern.Pattern) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(x uint32) {
		buf[0] = byte(x)
		buf[1] = byte(x >> 8)
		buf[2] = byte(x >> 16)
		buf[3] = byte(x >> 24)
		h.Write(buf[:])
	}
	put(uint32(c.N()))
	for i := 0; i < c.N(); i++ {
		put(uint32(c.Label(i)))
		put(uint32(c.NeighborMask(i)))
		put(uint32(c.AntiMask(i))) // zero except for explicit anti-edges
	}
	return h.Sum64()
}

// ID returns StructureID extended with the induced flag, so the two
// variants of one structure get distinct IDs.
func ID(p *pattern.Pattern) uint64 {
	id := StructureID(p)
	if p.Induced() == pattern.VertexInduced {
		id ^= 0x9e3779b97f4a7c15 // golden-ratio constant flips variant bit-mix
	}
	return id
}

// IsIsomorphic reports whether p and q are isomorphic as labeled structures
// (induced semantics ignored, per the paper's pattern-isomorphism relation).
func IsIsomorphic(p, q *pattern.Pattern) bool {
	if p.N() != q.N() || p.EdgeCount() != q.EdgeCount() {
		return false
	}
	return StructureID(p) == StructureID(q)
}

// Automorphisms returns all permutations a of p's vertices with
// edge(i,j) <=> edge(a(i),a(j)) and label(i) == label(a(i)). The identity
// is always included. The returned slice is memoized and shared — treat
// it as read-only.
func Automorphisms(p *pattern.Pattern) [][]int {
	key := exactKey(p)
	if auts, ok := autMemo.Get(key); ok {
		return auts
	}
	auts := mapsInto(p, p, true)
	autMemo.Put(key, auts)
	return auts
}

// Orbit returns, ascending, the images of v under the automorphisms of p
// that fix every vertex below v: v's orbit in the pointwise stabilizer of
// 0..v-1. Over all v the orbit sizes multiply to |Aut(p)| and the orbits
// are the Grochow-Kellis symmetry-breaking pairs (plan.SymmetryConditions),
// found one witness at a time — Automorphisms lists the whole group, 11!
// permutations for a 12-vertex star.
func Orbit(p *pattern.Pattern, v int) []int {
	n := p.N()
	img := make([]int, n)
	orbit := []int{v}
	for w := v + 1; w < n; w++ {
		for i := range img {
			img[i] = i
		}
		img[v] = w
		if autExtends(p, img, v, 1<<uint(v)-1|1<<uint(w)) {
			orbit = append(orbit, w)
		}
	}
	return orbit
}

// autExtends reports whether img, which maps vertices 0..k, extends to an
// automorphism of p; used is the set of images taken so far. Candidate
// images that are twins of one already tried are skipped, as in
// canonicalPerm.
func autExtends(p *pattern.Pattern, img []int, k int, used uint16) bool {
	u, v := k, img[k]
	if p.Label(u) != p.Label(v) || p.Degree(u) != p.Degree(v) {
		return false
	}
	for w := 0; w < k; w++ {
		if p.HasEdge(u, w) != p.HasEdge(v, img[w]) || p.IsAntiEdge(u, w) != p.IsAntiEdge(v, img[w]) {
			return false
		}
	}
	if k+1 == p.N() {
		return true
	}
	var tried []int
	for c := 0; c < p.N(); c++ {
		if used&(1<<uint(c)) != 0 || slices.ContainsFunc(tried, func(t int) bool { return twins(p, t, c) }) {
			continue
		}
		tried = append(tried, c)
		img[k+1] = c
		if autExtends(p, img, k+1, used|1<<uint(c)) {
			return true
		}
	}
	return false
}

// Isomorphisms enumerates phi(p,q): every injective map f from V(p) into
// V(q) such that each edge {i,j} of p maps to an edge {f(i),f(j)} of q and
// labels are preserved exactly. Edges of q outside the image of p's edges
// are allowed (subgraph isomorphism on regular edges only). p must not have
// more vertices than q.
// The returned slice is memoized and shared — treat it as read-only.
func Isomorphisms(p, q *pattern.Pattern) [][]int {
	if p.N() > q.N() {
		return nil
	}
	key := exactKey(p) + "|" + exactKey(q)
	if isos, ok := isoMemo.Get(key); ok {
		return isos
	}
	isos := mapsInto(p, q, false)
	isoMemo.Put(key, isos)
	return isos
}

// mapsInto backtracks over injective vertex maps p->q preserving p's edges.
// If exact, q's edges must also be preserved backwards (automorphism /
// induced isomorphism).
func mapsInto(p, q *pattern.Pattern, exact bool) [][]int {
	np, nq := p.N(), q.N()
	// Order p's vertices to keep the partial map connected when possible:
	// connected prefixes prune earlier.
	order := connectivityOrder(p)
	img := make([]int, np)
	for i := range img {
		img[i] = -1
	}
	usedQ := make([]bool, nq)
	var out [][]int

	var dfs func(k int)
	dfs = func(k int) {
		if k == np {
			m := make([]int, np)
			copy(m, img)
			out = append(out, m)
			return
		}
		u := order[k]
		for v := 0; v < nq; v++ {
			if usedQ[v] || p.Label(u) != q.Label(v) {
				continue
			}
			if exact && p.Degree(u) != q.Degree(v) {
				continue
			}
			ok := true
			for j := 0; j < k; j++ {
				w := order[j]
				pe := p.HasEdge(u, w)
				qe := q.HasEdge(v, img[w])
				if pe && !qe {
					ok = false
					break
				}
				if exact && !pe && qe {
					ok = false
					break
				}
				// Exact maps of explicit-anti patterns must also preserve
				// the anti-edge relation (variant-derived anti-edges are
				// the edge complement, already preserved above).
				if exact && p.HasExplicitAntiEdges() &&
					p.IsAntiEdge(u, w) != q.IsAntiEdge(v, img[w]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			img[u] = v
			usedQ[v] = true
			dfs(k + 1)
			usedQ[v] = false
			img[u] = -1
		}
	}
	dfs(0)
	return out
}

// connectivityOrder orders vertices so each (after the first) neighbors an
// earlier one when the pattern is connected, starting from a max-degree
// vertex.
func connectivityOrder(p *pattern.Pattern) []int {
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
		best, bestScore := -1, -1
		for v := 0; v < n; v++ {
			if placed[v] {
				continue
			}
			score := 0
			for _, u := range order {
				if p.HasEdge(v, u) {
					score++
				}
			}
			// Prefer attached, high-degree vertices; fall back to any.
			score = score*100 + p.Degree(v)
			if score > bestScore {
				best, bestScore = v, score
			}
		}
		order = append(order, best)
		placed[best] = true
	}
	return order
}

// CanonicalMatch returns the lexicographically smallest reordering of the
// match tuple m over all automorphisms of p: position i of the result holds
// m[a[i]] for the minimizing automorphism a. Engines and tests use it to
// compare match streams for equality regardless of which automorphic
// embedding was emitted.
func CanonicalMatch(p *pattern.Pattern, m []uint32, auts [][]int) []uint32 {
	best := make([]uint32, len(m))
	copy(best, m)
	tmp := make([]uint32, len(m))
	for _, a := range auts {
		for i, ai := range a {
			tmp[i] = m[ai]
		}
		if lessU32(tmp, best) {
			copy(best, tmp)
		}
	}
	return best
}

func lessU32(a, b []uint32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// AllConnectedPatterns returns one representative (edge-induced, canonical
// form) of every isomorphism class of connected unlabeled graphs on n
// vertices, sorted by edge count then ID. Motif counting uses this as its
// query set: n=3 yields 2 patterns, n=4 yields 6, n=5 yields 21.
// Brute force over edge subsets limits n to 6.
func AllConnectedPatterns(n int) ([]*pattern.Pattern, error) {
	if n < 2 || n > 6 {
		return nil, fmt.Errorf("canon: AllConnectedPatterns supports 2..6 vertices, got %d", n)
	}
	type pairT struct{ u, v int }
	var pairs []pairT
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, pairT{u, v})
		}
	}
	seen := map[uint64]*pattern.Pattern{}
	for mask := 0; mask < 1<<len(pairs); mask++ {
		var edges [][2]int
		for i, pr := range pairs {
			if mask&(1<<i) != 0 {
				edges = append(edges, [2]int{pr.u, pr.v})
			}
		}
		p, err := pattern.New(n, edges)
		if err != nil {
			return nil, err
		}
		if !p.IsConnected() {
			continue
		}
		id := StructureID(p)
		if _, ok := seen[id]; !ok {
			seen[id] = Canonicalize(p)
		}
	}
	out := make([]*pattern.Pattern, 0, len(seen))
	for _, p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].EdgeCount() != out[j].EdgeCount() {
			return out[i].EdgeCount() < out[j].EdgeCount()
		}
		return StructureID(out[i]) < StructureID(out[j])
	})
	return out, nil
}
