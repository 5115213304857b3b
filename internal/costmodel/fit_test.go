package costmodel

import (
	"context"
	"math"
	"strings"
	"testing"

	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/plan"
)

// fitSets are the pattern sets the weights are fitted on, each mined as one
// trie: the repo benchmark's serve pool, its 4-motif list and sc-mmap's
// list as they stand (the direct route), then the edge-induced closures an
// edge-only engine mines for them (the forced route).
var fitSets = [][]string{
	{"triangle"}, {"p1"}, {"p2"}, {"p3"}, {"p1:v"}, {"p2:v"}, {"4-cycle:v"},
	{"triangle", "4-cycle:v"}, {"4-star:v", "p1:v"}, {"p3", "p2:v"}, {"p1:v", "p2:v", "p3"},
	{"4-star:v", "p1:v", "4-cycle:v", "p2:v", "p3"},
	{"4-star:v", "4-path:v", "p1:v", "4-cycle:v", "p2:v", "p3"},

	{"p1", "p2", "p3"}, {"p2", "p3"}, {"4-cycle", "p2", "p3"}, {"triangle", "4-cycle", "p2", "p3"},
	{"4-star", "p1", "p2", "p3"}, {"4-star", "p1", "4-cycle", "p2", "p3"},
	{"4-star", "4-path", "p1", "4-cycle", "p2", "p3"},
}

// solve returns the least-squares x of a x = b (one sample per row of a) by
// the normal equations and Gauss-Jordan elimination: a handful of unknowns.
func solve(a [][]float64, b []float64) []float64 {
	n := len(a[0])
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n+1)
		for r := range a {
			for j := 0; j < n; j++ {
				m[i][j] += a[r][i] * a[r][j]
			}
			m[i][n] += a[r][i] * b[r]
		}
	}
	for c := 0; c < n; c++ {
		p := c
		for r := c + 1; r < n; r++ {
			if math.Abs(m[r][c]) > math.Abs(m[p][c]) {
				p = r
			}
		}
		m[c], m[p] = m[p], m[c]
		for r := 0; r < n; r++ {
			if r != c {
				f := m[r][c] / m[c][c]
				for j := c; j <= n; j++ {
					m[r][j] -= f * m[c][j]
				}
			}
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = m[i][n] / m[i][i]
	}
	return x
}

// TestFitWeights refits DefaultWeights and fails when the constants
// recorded there are not the fit's. A weight is what one modeled action
// costs, so it is fitted against measured actions, not estimated ones: each
// set of fitSets is mined in one counting pass (plan.Build's plans, one
// thread) on MI x0.01 and MG x0.003, and the executor's exact counters say
// how often each trie node ran (TrieNodes.Enters) and how much work the pass
// did (engine.Stats.Work, the one definition of exact work). With the op
// each node ran, read from the pass's own lowering (callsOf, and markScan
// for an OpCountMarked leaf), that gives, per set, the intersections and
// differences executed (kernel calls and base builds), the elements the
// marked leaves probe and mark as the model expects them, the
// collapsed-leaf executions and the node executions; the weights are the
// relative least-squares solution of
//
//	Work = SetOp x deg x intersections + Difference x deg x differences + Marked x marked elements
//	       + Leaf x collapsed executions + Iterate x executions
//
// (deg: the model's element count per operation on that graph). Run with
// -v for the table, and for the per-path set-operation counters the setops
// dispatch thresholds are judged by.
func TestFitWeights(t *testing.T) {
	if testing.Short() {
		t.Skip("mines every fit set on two graphs")
	}
	var a [][]float64
	var names []string
	var elems []float64
	var paths engine.Stats
	for _, rec := range []dataset.Recipe{dataset.MiCo().Scaled(0.01), dataset.MAG().Scaled(0.003)} {
		g, err := rec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		m := NewDefault(graph.Summarize(g))
		for _, set := range fitSets {
			plans := make([]*plan.Plan, len(set))
			for i, name := range set {
				name, induced := strings.CutSuffix(name, ":v")
				p, err := pattern.ByName(name)
				if name == "4-path" {
					p, err = pattern.Path(4), nil
				}
				if err != nil {
					t.Fatal(err)
				}
				if induced {
					p = p.AsVertexInduced()
				}
				plans[i] = planFor(t, p)
			}
			tr, err := plan.MergePlans(plans)
			if err != nil {
				t.Fatal(err)
			}
			_, st, err := engine.BacktrackTrieCtx(context.Background(), g, tr, engine.ExecOptions{Threads: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var prog plan.Program
			prog.Lower(tr, false, true)
			// Every node once, its calls read off the op the pass ran there,
			// with the lists of the first plan through it.
			var inter, diff, marked, collapsed float64
			execs := float64(g.NumVertices())
			classed := map[int]bool{}
			for idx, path := range nodePaths(tr) {
				for i, node := range path[1:] {
					if classed[node.ID] {
						continue
					}
					classed[node.ID] = true
					op := &prog.Ops[node.ID]
					k := callsOf(plans[idx], i+1, op)
					runs, remakes := float64(st.TrieNodes[node.ID].Enters), float64(st.TrieNodes[path[k.remade].ID].Enters)
					if op.Kind == plan.OpCountMarked {
						probes, size := m.markScan(plans[idx], i+1)
						marked += probes*runs + size*remakes
						k.diff = 0
					}
					execs += runs
					inter += runs*k.inter + remakes*k.baseInter
					diff += runs*k.diff + remakes*k.baseDiff
					if op.Kind == plan.OpCollapsed {
						collapsed += runs
					}
				}
			}
			names = append(names, rec.Name+" "+strings.Join(set, " "))
			elems = append(elems, float64(st.Work()))
			e := elems[len(elems)-1]
			a = append(a, []float64{m.deg * inter / e, m.deg * diff / e, collapsed / e, execs / e, marked / e})
			paths.Add(st)
		}
	}
	ones := make([]float64, len(a))
	for i := range ones {
		ones[i] = 1
	}
	w := solve(a, ones)
	for i, row := range a {
		t.Logf("%-60s elements %9.0f  x deg: intersections %9.0f differences %9.0f marked %9.0f  collapsed %8.0f executions %8.0f predicted/measured %.2f",
			names[i], elems[i], row[0]*elems[i], row[1]*elems[i], row[4]*elems[i], row[2]*elems[i], row[3]*elems[i], w[0]*row[0]+w[1]*row[1]+w[2]*row[2]+w[3]*row[3]+w[4]*row[4])
	}
	t.Logf("fitted SetOp %.3g Difference %.3g Leaf %.3g Iterate %.3g Marked %.3g", w[0], w[1], w[2], w[3], w[4])
	t.Logf("set operations of the fit's passes: %d (merge %d, unrolled %d, gallop %d, bitset %d; count-only %d) over %d elements",
		paths.SetOps, paths.SetMergeOps, paths.SetUnrolledOps, paths.SetGallopOps, paths.SetBitsetOps, paths.SetCountOps, paths.SetElems)
	got := DefaultWeights()
	for i, rec := range []float64{got.SetOp, got.Difference, got.Leaf, got.Iterate, got.Marked} {
		if math.Abs(rec-w[i]) > 0.02*w[i] {
			t.Errorf("DefaultWeights %+v are not the fit (SetOp %.3g Difference %.3g Leaf %.3g Iterate %.3g Marked %.3g): record the fit", got, w[0], w[1], w[2], w[3], w[4])
			break
		}
	}
}
