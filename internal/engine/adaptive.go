package engine

import (
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/setops"
)

// Pinned rows and the adaptive set-operation entry points of the
// depth-first executor.
//
// An executor binds one data vertex per depth and then uses that vertex's
// adjacency row at every deeper level. rowPins makes the reuse explicit:
// one worker keeps one pinned row per bound depth, fetched on first use
// and tagged with its vertex, so a row is fetched once per binding however
// many levels intersect against it — and not at all when a depth is
// re-bound to the vertex it already held. On plain CSR a pin is the CSR
// alias; on a decoding tier it is a decode into a buffer the pin owns
// (graph.Adjacency.Row), which grows to the largest degree it has held —
// or, for a row the tier keeps decoded (the compressed tier's hot rows),
// a lent alias like CSR's, the buffer left alone. Either way the pin only
// reads its row.
// A pinned row stays valid while its depth stays bound, which is exactly
// as long as any deeper level can hold on to it, so executors retain
// rows across their candidate loops without copying.
//
// Each entry point routes one candidate-set operation against a pinned
// row through the best available kernel: bitmap probes when the vertex is
// an indexed hub (graph.Graph.HubBits), otherwise the merge/gallop
// dispatch inside internal/setops. The dispatch lives here, next to the
// graph, which owns the hub index. Depths are positions in the executor's
// match prefix throughout.
//
// A labeled level whose Connect rows can carry its label
// (plan.Op.RowLabel) passes it down here, and the entry points read
// each such row's label slice in place of the pinned row: N_L(a) ∩ N_L(b) =
// (N(a) ∩ N(b))_L, label-pure without a scan. Disconnect rows stay whole.
type rowPins struct {
	g     graph.Adjacency // the worker's view
	lrows labelRower      // the graph behind g, when it serves label rows (set by the pass)
	above []uint32        // the graph's upper-row offsets, when it serves them (set by the pass)
	match []uint32        // the executor's prefix: match[j] is bound at depth j
	pins  []pin
	hits  uint64 // pinned-row edge probes not yet reported to the view
}

type pin struct {
	v   uint32
	ok  bool     // row is v's row
	row []uint32 // CSR or hot-row alias, or buf
	buf []uint32 // decode buffer; stays nil on plain CSR
}

// probeHitCounter is implemented by views that account edge probes
// (graph's compressed view): a probe answered from a pinned row decodes
// nothing, which is what graph.DecodeStats calls a probe hit.
type probeHitCounter interface{ CountProbeHits(n uint64) }

// labelRower is implemented by graphs that serve a row's label slice from
// immutable storage any worker may read (graph.Graph.LabelRow). On the
// others — compressed and mmap tiers, test wrappers — labeled levels scan.
type labelRower interface {
	LabelRow(v uint32, label int32) []uint32
	LabelGroups(v uint32) (row []uint32, dir []graph.LabelGroup)
}

// aboveRower is implemented by graphs that serve upper-row offsets
// (graph.Graph.AboveRows); cutRow reads them. The other tiers search.
type aboveRower interface{ AboveRows() []uint32 }

// reset prepares the pins for an execution over g (the worker's own
// view) with the given number of depths, dropping every pinned row but
// keeping the decode buffers for reuse.
func (p *rowPins) reset(g graph.Adjacency, depths int) {
	p.g = g
	if cap(p.pins) < depths {
		p.pins = append(p.pins[:cap(p.pins)], make([]pin, depths-cap(p.pins))...)
	}
	p.pins = p.pins[:depths]
	for i := range p.pins {
		p.pins[i].ok = false
	}
}

// release reports the probe hits to the view and drops every reference
// to the graph and the prefix, so a pooled worker pins neither.
func (p *rowPins) release() {
	if c, ok := p.g.(probeHitCounter); ok && p.hits > 0 {
		c.CountProbeHits(p.hits)
	}
	p.hits = 0
	p.g, p.lrows, p.above, p.match = nil, nil, nil, nil
	all := p.pins[:cap(p.pins)]
	for i := range all {
		all[i].ok, all[i].row = false, nil
	}
}

// row returns the adjacency row of the vertex bound at depth j. It is
// valid until depth j is bound to another vertex.
func (p *rowPins) row(j int) []uint32 {
	pn := &p.pins[j]
	if v := p.match[j]; !pn.ok || pn.v != v {
		pn.row, pn.buf = p.g.Row(v, pn.buf)
		pn.v, pn.ok = v, true
	}
	return pn.row
}

// connRow returns what a Connect operand reads of the vertex bound at depth
// j: the pinned row, or under a label its label slice (an alias of the graph).
func (p *rowPins) connRow(j int, label int32) []uint32 {
	if label == pattern.Unlabeled {
		return p.row(j)
	}
	return p.lrows.LabelRow(p.match[j], label)
}

// cutRow is connRow for a count-only kernel whose window starts at lo. When
// lo is one past the vertex v bound at depth j — v_j is the level's lower
// bound, the common shape of a symmetry-breaking window — and the graph
// serves upper-row offsets (graph.Graph.AboveRows), the whole row comes back
// from v's first neighbour above v, where the kernel's Clip would have cut
// it: the kernel finds nothing to search. Otherwise it is connRow.
func (p *rowPins) cutRow(j int, label int32, lo uint32) []uint32 {
	if v := p.match[j]; lo == v+1 && p.above != nil && label == pattern.Unlabeled {
		return p.row(j)[p.above[v]:]
	}
	return p.connRow(j, label)
}

// adjacent reports whether the vertices bound at depths a and b are
// adjacent, by binary search in a pinned row: b's — callers pass a depth
// whose row the level's set operations already fetched — or a's when
// that one is pinned too and shorter. Nothing is decoded for the probe.
func (p *rowPins) adjacent(a, b int) bool {
	row, x := p.row(b), p.match[a]
	if pa := &p.pins[a]; pa.ok && pa.v == x && len(pa.row) < len(row) {
		row, x = pa.row, p.match[b]
	}
	p.hits++
	return setops.Contains(row, x)
}

// intersectNeighbors intersects cur with the adjacency row of the vertex
// bound at depth j — under a label, with that row's label slice, which a
// hub's bitmap cannot stand in for — into dst[:0]. cur must be sorted
// duplicate-free; the result is too.
func (p *rowPins) intersectNeighbors(dst, cur []uint32, j int, label int32, st *setops.Stats) []uint32 {
	if bits := p.g.HubBits(p.match[j]); bits != nil && label == pattern.Unlabeled {
		return setops.IntersectBits(dst, cur, bits, st)
	}
	return setops.Intersect(dst, cur, p.connRow(j, label), st)
}

// differenceNeighbors subtracts the adjacency row of the vertex bound at
// depth j from cur into dst[:0].
func (p *rowPins) differenceNeighbors(dst, cur []uint32, j int, st *setops.Stats) []uint32 {
	if bits := p.g.HubBits(p.match[j]); bits != nil {
		return setops.DifferenceBits(dst, cur, bits, st)
	}
	return setops.Difference(dst, cur, p.row(j), st)
}

// intersectCountF counts the elements of cur adjacent to the vertex bound
// at depth j (and, under a label, carrying it) that pass f, without
// materializing them.
func (p *rowPins) intersectCountF(cur []uint32, j int, f setops.Filter, label int32, st *setops.Stats) uint64 {
	if bits := p.g.HubBits(p.match[j]); bits != nil && label == pattern.Unlabeled {
		return setops.IntersectBitsCountF(cur, bits, f, st)
	}
	return setops.IntersectCountF(cur, p.cutRow(j, label, f.Lo), f, st)
}

// differenceCountF counts the elements of cur not adjacent to the vertex
// bound at depth j that pass f, without materializing them.
func (p *rowPins) differenceCountF(cur []uint32, j int, f setops.Filter, st *setops.Stats) uint64 {
	if bits := p.g.HubBits(p.match[j]); bits != nil {
		return setops.DifferenceBitsCountF(cur, bits, f, st)
	}
	return setops.DifferenceCountF(cur, p.cutRow(j, pattern.Unlabeled, f.Lo), f, st)
}

// candidates materializes the vertices adjacent to every vertex bound at
// the conn depths and to none bound at the disc depths, starting from the
// smallest conn row. conn must be non-empty. bufA and bufB are
// worker-owned scratch, returned (possibly regrown) for reuse. With a
// single conn depth and no disc depth no set operation runs and the
// result is the pinned row itself, valid while that depth stays bound.
// Under a label every conn row is read as its label slice.
func (p *rowPins) candidates(conn, disc []int, label int32, bufA, bufB []uint32, st *setops.Stats) (cur, a, b []uint32) {
	return p.narrow(p.smallest(conn), -1, conn, disc, label, bufA, bufB, st)
}

// narrow is candidates starting from the row of depth base and leaving out
// the conn depth skip.
func (p *rowPins) narrow(base, skip int, conn, disc []int, label int32, bufA, bufB []uint32, st *setops.Stats) (cur, a, b []uint32) {
	cur = p.connRow(base, label)
	out, spare := bufA, bufB
	for _, j := range conn {
		if j == base || j == skip {
			continue
		}
		cur = p.intersectNeighbors(out, cur, j, label, st)
		out, spare = spare, cur
	}
	for _, j := range disc {
		cur = p.differenceNeighbors(out, cur, j, st)
		out, spare = spare, cur
	}
	return cur, out, spare
}

// smallest returns the conn depth whose bound vertex has the lowest
// degree (the first such on ties).
func (p *rowPins) smallest(conn []int) int {
	base := conn[0]
	for _, j := range conn[1:] {
		if p.g.Degree(p.match[j]) < p.g.Degree(p.match[base]) {
			base = j
		}
	}
	return base
}

// levelFilter builds the fused count-only filter for one plan level: the
// half-open symmetry window [lo, hi) plus the level's label requirement.
// ok is false when the level cannot match at all (a labeled pattern vertex
// against an unlabeled graph), letting callers skip the level outright.
func levelFilter(g graph.Adjacency, lo, hi uint32, want int32) (f setops.Filter, ok bool) {
	f = setops.Filter{Lo: lo, Hi: hi}
	if want != pattern.Unlabeled {
		ls := g.Labels()
		if ls == nil {
			return f, false
		}
		f.Labels, f.Want = ls, want
	}
	return f, true
}

// kernelFilter returns what is left of a level's filter f for the set
// kernels to test when the rows they read carry label: the window alone.
func kernelFilter(f setops.Filter, label int32) setops.Filter {
	if label != pattern.Unlabeled {
		f.Labels = nil
	}
	return f
}

// degreeCount counts a degree leaf whose Connect level is depth j and
// which has nAlways bound depths to subtract. It charges the one
// count-only operation setops.CountF would have charged for the whole row.
func (p *rowPins) degreeCount(j, nAlways int, st *setops.Stats) uint64 {
	st.Ops++
	st.CountOps++
	return uint64(p.g.Degree(p.match[j]) - nAlways)
}

// countExtensions counts the data vertices v that complete a partial
// match at its final level — v adjacent to every vertex bound at the conn
// depths, non-adjacent to every vertex bound at the disc depths, passing
// the filter, and distinct from every already-bound vertex — without
// materializing the final candidate set: all set operations but the last
// run through the adaptive materializing kernels, and the last one (plus
// the window and label filters) is count-only. With a single constraint
// the count is pure window arithmetic, and when a pair of hub vertices
// closes the level it is a word-parallel bitmap AND.
//
// conn must be non-empty. always and check list the bound depths whose
// vertex the kernels may have counted (plan.Class.Bound): the vertices at the
// always depths qualify in every match and are subtracted when they pass
// f; those at the check depths are subtracted when adjacency probes into
// pinned rows find they qualify. A conn vertex is not its own neighbor, so
// it is never counted and in neither list; a disc vertex is not its own
// neighbor either, so it can qualify against itself. bufA and bufB are
// worker-owned scratch for the intermediate sets; the (possibly regrown)
// buffers are returned for reuse.
// f is the level's whole filter: the kernels get kernelFilter's share of it,
// while a bound vertex is held against all of f — one with another label
// was never counted.
func (p *rowPins) countExtensions(conn, disc, always, check []int, f setops.Filter, label int32, bufA, bufB []uint32, st *setops.Stats) (uint64, []uint32, []uint32) {
	g := p.g
	kf := kernelFilter(f, label)
	var count uint64
	switch {
	case len(conn) == 1 && len(disc) == 0:
		// No set operation at all: the count is window arithmetic over one
		// adjacency list (plus a label scan where the row cannot carry it).
		count = setops.CountF(p.cutRow(conn[0], label, kf.Lo), kf, st)
	case len(conn) == 2 && len(disc) == 0 && g.HubBits(p.match[conn[0]]) != nil && g.HubBits(p.match[conn[1]]) != nil:
		count = setops.AndCountF(g.HubBits(p.match[conn[0]]), g.HubBits(p.match[conn[1]]), f, st)
	default:
		// Materialize every operation except the last; the final operation
		// is count-only with the window and label fused in.
		base := p.smallest(conn)
		lastConn := -1
		if len(disc) == 0 {
			for i := len(conn) - 1; i >= 0; i-- {
				if conn[i] != base {
					lastConn = conn[i]
					break
				}
			}
		}
		var cur []uint32
		cur, bufA, bufB = p.narrow(base, lastConn, conn, disc[:max(len(disc)-1, 0)], label, bufA, bufB, st)
		if len(disc) > 0 {
			count = p.differenceCountF(cur, disc[len(disc)-1], kf, st)
		} else {
			count = p.intersectCountF(cur, lastConn, kf, label, st)
		}
	}

	return p.uncount(count, conn, disc, always, check, f), bufA, bufB
}

// uncount takes out of a level's count the already-bound vertices its
// kernels counted: they structurally qualify, and a match may not reuse a
// vertex (see countExtensions).
func (p *rowPins) uncount(count uint64, conn, disc, always, check []int, f setops.Filter) uint64 {
	for _, a := range always {
		if f.Pass(p.match[a]) {
			count--
		}
	}
	for _, a := range check {
		if f.Pass(p.match[a]) && p.qualifies(a, conn, disc) {
			count--
		}
	}
	return count
}

// qualifies reports whether the vertex bound at depth a is adjacent to
// every vertex bound at the conn depths and to none bound at the disc
// depths (a itself, when listed in disc, aside: no vertex is its own
// neighbor).
func (p *rowPins) qualifies(a int, conn, disc []int) bool {
	for _, c := range conn {
		if !p.adjacent(a, c) {
			return false
		}
	}
	for _, d := range disc {
		if d != a && p.adjacent(a, d) {
			return false
		}
	}
	return true
}
