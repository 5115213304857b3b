package graph

import (
	"slices"
	"sync"
	"sync/atomic"
)

// labelIndex is a second adjacency arena for the plain CSR tier in which
// every row is grouped by neighbour label, ascending ids inside a group (a
// stable partition of the id-sorted row), so "the neighbours of v carrying
// label L" is a slice lookup where the executor's labeled levels — up to 29
// label siblings under one parent on an FSM level — each scanned the row to
// keep one vertex in ten. It is built once per *Graph by the first LabelRow
// or LabelGroups call, as Summarize is memoized: unlabeled graphs and
// workloads never pay for it. Cost: 4 B per directed edge (adj), 8 B per
// (vertex, label present in its row) pair (dir — sparse, a dense |V|×L
// table is out of the question at MG's 349 labels) and 8 B per vertex
// (dirOff).
type labelIndex struct {
	adj    []uint32     // every CSR row, grouped by neighbour label
	dirOff []uint64     // v's groups are dir[dirOff[v]:dirOff[v+1]], labels ascending
	dir    []LabelGroup // a group ends where the next one starts, or the row does
	labels int          // distinct labels in the graph
}

// LabelGroup is one entry of a row's label directory (LabelGroups): the
// neighbours carrying Label start at Start within the grouped row and end
// where the next group starts, or the row does.
type LabelGroup struct {
	Label int32
	Start uint32
}

// labelRowsMemo is the once-per-graph slot of the index.
type labelRowsMemo struct {
	once sync.Once
	ix   atomic.Pointer[labelIndex] // non-nil once built: what NumLabels and LabelRowsBytes ask
}

// LabelRow returns the neighbours of v that carry label, strictly
// ascending: a keep-forever alias of immutable storage like Neighbors, nil
// when the graph is unlabeled or no neighbour of v has the label. The first
// call builds the index.
func (g *Graph) LabelRow(v uint32, label int32) []uint32 {
	if g.labels == nil {
		return nil
	}
	ix := g.lrows.ix.Load()
	if ix == nil {
		ix = g.buildLabelRows()
	}
	dir := ix.dir[ix.dirOff[v]:ix.dirOff[v+1]]
	i, hi := 0, len(dir) // by hand: the generic search's comparator calls cost a labeled FSM query 4 %
	for i < hi {
		if mid := int(uint(i+hi) >> 1); dir[mid].Label < label {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	if i == len(dir) || dir[i].Label != label {
		return nil
	}
	row := ix.adj[g.offsets[v]:g.offsets[v+1]]
	if i+1 < len(dir) {
		return row[dir[i].Start:dir[i+1].Start]
	}
	return row[dir[i].Start:]
}

// LabelGroups returns the row of v grouped by neighbour label and its
// directory, labels ascending: the index LabelRow searches, for a caller
// that wants the slices of several labels of one row and walks the
// directory once. Both are keep-forever aliases, nil when the graph is
// unlabeled. The first call builds the index, as LabelRow's does.
func (g *Graph) LabelGroups(v uint32) (row []uint32, dir []LabelGroup) {
	if g.labels == nil {
		return nil, nil
	}
	ix := g.lrows.ix.Load()
	if ix == nil {
		ix = g.buildLabelRows()
	}
	return ix.adj[g.offsets[v]:g.offsets[v+1]], ix.dir[ix.dirOff[v]:ix.dirOff[v+1]]
}

// buildLabelRows builds the label-row index once; concurrent first calls
// wait for the one build.
func (g *Graph) buildLabelRows() *labelIndex {
	g.lrows.once.Do(func() { g.lrows.ix.Store(buildLabelIndex(g)) })
	return g.lrows.ix.Load()
}

// LabelRowsBytes returns the memory the label-row index holds, 0 while it
// has not been built (no LabelRow call yet, or an unlabeled graph).
func (g *Graph) LabelRowsBytes() int {
	if ix := g.lrows.ix.Load(); ix != nil {
		return 4*len(ix.adj) + 8*len(ix.dirOff) + 8*cap(ix.dir)
	}
	return 0
}

// buildLabelIndex partitions every row by neighbour label: one counting
// sort per row over the labels' ranks, O(|E| + Σ t log t) for t labels
// present in a row.
func buildLabelIndex(g *Graph) *labelIndex {
	n := g.NumVertices()
	distinct := slices.Clone(g.labels)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	rank := make([]uint32, n) // per vertex: its label's position in distinct
	for v, l := range g.labels {
		r, _ := slices.BinarySearch(distinct, l)
		rank[v] = uint32(r)
	}
	ix := &labelIndex{adj: make([]uint32, len(g.adj)), dirOff: make([]uint64, n+1), labels: len(distinct)}
	next := make([]uint32, len(distinct)) // per rank: group size, then write cursor
	var present []uint32                  // ranks seen in the row in hand
	for v := 0; v < n; v++ {
		row, out := g.Neighbors(uint32(v)), ix.adj[g.offsets[v]:g.offsets[v+1]]
		present = present[:0]
		for _, u := range row {
			if next[rank[u]]++; next[rank[u]] == 1 {
				present = append(present, rank[u])
			}
		}
		slices.Sort(present)
		start := uint32(0)
		for _, r := range present {
			ix.dir = append(ix.dir, LabelGroup{distinct[r], start})
			start, next[r] = start+next[r], start
		}
		for _, u := range row {
			out[next[rank[u]]] = u
			next[rank[u]]++
		}
		for _, r := range present {
			next[r] = 0
		}
		ix.dirOff[v+1] = uint64(len(ix.dir))
	}
	return ix
}
