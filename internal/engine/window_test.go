package engine_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"morphing/internal/canon"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/plan"
	"morphing/internal/setops"
)

// TestWindowCursorIsTheClip holds every operand a count leaf hands its
// kernels already cut — the held base from the leaf's cursor, the binding
// row from the graph's upper-row offset — against setops.Clip of the whole
// operand at the window's low end: the same suffix of the same storage. The
// vertex-induced 4-vertex patterns and a sample of the 5-vertex ones run as
// merged tries over a random graph and a hubbed one, each plain, compressed
// and mapped, on one worker — a pooled worker moving on to the next graph
// with its cursors — and then on three. No planner's order lets a leaf's
// low end move down while its base stands, so a last plan forces one: a
// 4-clique with a tail, the tail matched at depth 2, on a labeled graph
// whose label rows keep the leaf from the raw set of its parent — its base
// is built at depth 1, and its low end, its parent's candidate, restarts
// with every tail vertex. The test fails unless the cursor walked and
// searched, bases changed generation under a leaf, a low end moved down
// under one generation, a leaf whose low end is a grandparent's candidate
// ran, and rows were cut on the plain tier and never elsewhere.
func TestWindowCursorIsTheClip(t *testing.T) {
	var sets [][]*pattern.Pattern
	for k := 4; k <= 5; k++ {
		ps, err := canon.AllConnectedPatterns(k)
		if err != nil {
			t.Fatal(err)
		}
		var set []*pattern.Pattern
		for i, p := range ps {
			if k == 4 || i%7 == 3 {
				set = append(set, p.AsVertexInduced())
			}
		}
		sets = append(sets, set)
	}
	random, err := dataset.ErdosRenyi(500, 5, 0, 51)
	if err != nil {
		t.Fatal(err)
	}
	hubbed, err := dataset.Hubbed(200, 4, 2, 0, 52)
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := dataset.Hubbed(200, 8, 3, 2, 53)
	if err != nil {
		t.Fatal(err)
	}
	tailed := pattern.MustNew(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 3}, {0, 4}, {1, 4}, {3, 4}},
		pattern.WithLabels([]int32{pattern.Unlabeled, pattern.Unlabeled, pattern.Unlabeled, 0, 0}))
	forced, err := plan.BuildWithOrder(tailed, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}

	type step struct {
		name  string
		g     graph.Adjacency
		plain bool
		tries func(threads int) []*plan.Trie
	}
	planned := func(g graph.Adjacency) func(int) []*plan.Trie {
		return func(threads int) []*plan.Trie {
			var trs []*plan.Trie
			for _, set := range sets {
				tr, err := engine.BuildTrie(peregrine.New(threads), g, set)
				if err != nil {
					t.Fatal(err)
				}
				trs = append(trs, tr)
			}
			return trs
		}
	}
	var steps []step
	for _, g := range []struct {
		name string
		g    *graph.Graph
	}{{"random", random}, {"hubbed", hubbed}} {
		c, err := graph.Compress(g.g, 0)
		if err != nil {
			t.Fatal(err)
		}
		m := mapped(t, c)
		steps = append(steps, step{g.name + "/plain", g.g, true, planned(g.g)},
			step{g.name + "/compressed", c, false, planned(c)}, step{g.name + "/mmap", m, false, planned(m)})
	}
	steps = append(steps, step{"labeled/plain, forced order", labeled, true, func(int) []*plan.Trie {
		tr, err := plan.MergePlans([]*plan.Plan{forced})
		if err != nil {
			t.Fatal(err)
		}
		return []*plan.Trie{tr}
	}})

	// suffix reports whether cut is what Clip leaves of whole at lo: the
	// same elements, and the same storage.
	suffix := func(whole, cut []uint32, lo uint32) bool {
		want := setops.Clip(whole, lo, ^uint32(0))
		return len(cut) == len(want) && (len(cut) == 0 || &cut[0] == &want[0])
	}
	type last struct {
		key  uint64
		held int
		lo   uint32
	}
	// Per worker: calls with one worker ID never overlap, so the hook takes
	// no lock.
	type tally struct {
		counts, wrong, walked, searched, rowCuts int
		generations, loDown, grandparent         int
		last                                     map[*plan.TrieNode]last
	}
	var (
		workers [3]tally
		plain   bool
		fromGP  map[*plan.TrieNode]bool // leaves whose low end is a grandparent's candidate
	)
	stop := engine.SeeOps(func(s engine.OpSeen) {
		switch s.Op.Kind {
		case plan.OpCountMerge, plan.OpCountDiff, plan.OpCountMarked, plan.OpCountHeld:
		default:
			return
		}
		leaf, key, base, held, row, cut, lo := s.Op.Node, s.Key, s.Base, s.Held, s.Row, s.Cut, s.F.Lo
		w := &workers[s.Worker]
		w.counts++
		// A row comes back whole where no offset applies, for the kernel
		// to clip; always on the decoding tiers.
		if !suffix(base, held, lo) || len(cut) != len(row) && (!plain || !suffix(row, cut, lo)) {
			if w.wrong < 10 {
				t.Errorf("leaf %d (depth %d), low end %d: held %d of %d base elements, cut %d of %d row elements; Clip leaves %d and %d",
					leaf.ID, leaf.Depth, lo, len(held), len(base), len(cut), len(row),
					len(setops.Clip(base, lo, ^uint32(0))), len(setops.Clip(row, lo, ^uint32(0))))
			}
			w.wrong++
		}
		if len(cut) < len(row) {
			w.rowCuts++
		}
		if fromGP[leaf] && lo > 0 {
			w.grandparent++
		}
		switch l, ok := w.last[leaf]; {
		case !ok:
		case l.key != key:
			w.generations++
		case lo < l.lo:
			w.loDown++
		case l.held-len(held) > 4: // past the cursor's walk
			w.searched++
		case l.held > len(held):
			w.walked++
		}
		w.last[leaf] = last{key, len(held), lo}
	})
	defer stop()

	for _, threads := range []int{1, 3} {
		for _, s := range steps {
			plain = s.plain
			for _, tr := range s.tries(threads) {
				fromGP = map[*plan.TrieNode]bool{}
				tr.Walk(func(n *plan.TrieNode) {
					if n.Leaf && len(n.Branches) == 1 {
						gt := n.Branches[0].Greater
						fromGP[n] = len(gt) > 0 && !slices.Contains(gt, n.Depth-1)
					}
				})
				for i := range workers {
					workers[i].last = map[*plan.TrieNode]last{}
				}
				if _, _, err := engine.BacktrackTrieCtx(context.Background(), s.g, tr, engine.ExecOptions{Threads: threads}, nil); err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
			}
		}
	}
	var all tally // a row cut off the plain tier fails the hook
	for _, w := range workers {
		all.counts += w.counts
		all.rowCuts += w.rowCuts
		all.walked += w.walked
		all.searched += w.searched
		all.generations += w.generations
		all.loDown += w.loDown
		all.grandparent += w.grandparent
	}
	t.Logf("%d held-base counts: cursor walked %d, searched %d; base generations %d, low end down %d, grandparent low ends %d; rows cut %d on plain CSR",
		all.counts, all.walked, all.searched, all.generations, all.loDown, all.grandparent, all.rowCuts)
	if all.walked == 0 || all.searched == 0 || all.generations == 0 || all.loDown == 0 || all.grandparent == 0 || all.rowCuts == 0 {
		t.Errorf("every case must run: walked %d, searched %d, generations %d, low end down %d, grandparent low ends %d, plain row cuts %d",
			all.walked, all.searched, all.generations, all.loDown, all.grandparent, all.rowCuts)
	}
}

// mapped writes c to a file under t's temporary directory and maps it.
func mapped(t *testing.T, c *graph.CompressedGraph) graph.Adjacency {
	t.Helper()
	path := filepath.Join(t.TempDir(), fmt.Sprintf("g%d.mcsr", c.NumVertices()))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBinary2(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	h, err := graph.Open(path, graph.OpenOptions{Mode: graph.OpenMmap})
	if err != nil {
		t.Skipf("no mmap: %v", err)
	}
	t.Cleanup(func() { h.Close() })
	return h.Graph()
}
