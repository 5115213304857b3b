package graph

import (
	"sort"
	"sync"
)

// Summary captures the graph statistics the cost model consumes (§5.2).
// Following the paper's enhancement, the probabilistic model is restricted
// to the high-degree portion of the graph: vertices at or above the 95th
// degree percentile contribute 66-99% of matches and runtime, so High*
// fields describe that induced subgraph.
type Summary struct {
	NumVertices int
	NumEdges    uint64
	AvgDegree   float64
	MaxDegree   int

	// HighN is the number of vertices at or above the 95th degree
	// percentile; HighAvgDegree and HighEdgeProb describe the subgraph
	// they induce. HighEdgeProb is the probability two random high-degree
	// vertices are adjacent.
	HighN         int
	HighAvgDegree float64
	HighEdgeProb  float64

	// LabelFreq maps each label to its vertex frequency (empty for
	// unlabeled graphs). The cost model uses it to shrink candidate-set
	// estimates for labeled patterns.
	LabelFreq map[int32]float64
}

// Summarize returns the Summary of a. The graph is immutable, so each
// *Graph and *CompressedGraph computes its summary once — an O(n log n)
// sort plus, on the compressed tier, a decode of every high-degree row —
// and every caller, through whatever view or wrapper, shares the result:
// treat the returned LabelFreq map as read-only. Other Adjacency
// implementations are summarized afresh on every call.
func Summarize(a Adjacency) Summary {
	if m, ok := a.(interface{ summaryMemo() *summaryMemo }); ok {
		return m.summaryMemo().get(a)
	}
	return summarize(a)
}

// summaryMemo is the once-per-graph summary slot the storage tiers embed.
type summaryMemo struct {
	once sync.Once
	s    Summary
}

func (m *summaryMemo) get(a Adjacency) Summary {
	m.once.Do(func() { m.s = summarize(a) })
	return m.s
}

func (g *Graph) summaryMemo() *summaryMemo           { return &g.sum }
func (c *CompressedGraph) summaryMemo() *summaryMemo { return &c.sum }
func (w *compressedView) summaryMemo() *summaryMemo  { return &w.g.sum }

func summarize(a Adjacency) Summary {
	g := a.View()
	n := g.NumVertices()
	s := Summary{
		NumVertices: n,
		NumEdges:    g.NumEdges(),
		MaxDegree:   g.MaxDegree(),
		LabelFreq:   map[int32]float64{},
	}
	if n > 0 {
		s.AvgDegree = 2 * float64(s.NumEdges) / float64(n)
	}
	if n == 0 {
		return s
	}
	degrees := make([]int, n)
	for v := 0; v < n; v++ {
		degrees[v] = g.Degree(uint32(v))
	}
	sorted := append([]int(nil), degrees...)
	sort.Ints(sorted)
	cut := sorted[(n*95)/100]
	high := make(map[uint32]struct{})
	for v := 0; v < n; v++ {
		if degrees[v] >= cut {
			high[uint32(v)] = struct{}{}
		}
	}
	s.HighN = len(high)
	var innerDeg uint64
	var row, buf []uint32
	for v := range high {
		row, buf = g.Row(v, buf)
		for _, u := range row {
			if _, ok := high[u]; ok {
				innerDeg++
			}
		}
	}
	if s.HighN > 0 {
		s.HighAvgDegree = float64(innerDeg) / float64(s.HighN)
	}
	if s.HighN > 1 {
		s.HighEdgeProb = float64(innerDeg) / (float64(s.HighN) * float64(s.HighN-1))
	}
	if g.Labeled() {
		for v := 0; v < n; v++ {
			s.LabelFreq[g.Label(uint32(v))] += 1 / float64(n)
		}
	}
	return s
}
