package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"morphing/internal/canon"
	"morphing/internal/dataset"
	"morphing/internal/graph"
	"morphing/internal/pattern"
	"morphing/internal/refmatch"
)

// windowTally counts what a pass hands its sinks: the windows, and the
// prefix slots plus tail ids they carry — the pass's UDFCalls and
// Materialized.
type windowTally struct{ windows, slots atomic.Uint64 }

// sink streams every match to v (EachMatch), tallying each window first.
func (c *windowTally) sink(v Visitor) Sink {
	each := EachMatch(v)
	return func(worker int) Window {
		win := each(worker)
		return func(m []uint32, pos int, tail []uint32) {
			c.windows.Add(1)
			c.slots.Add(uint64(len(m) - 1 + len(tail)))
			win(m, pos, tail)
		}
	}
}

// check reports a pass whose UDFCalls or Materialized is not the tally.
func (c *windowTally) check(st *Stats) error {
	if st.UDFCalls != c.windows.Load() || st.Materialized != c.slots.Load() {
		return fmt.Errorf("%d UDF calls and %d vertices materialized, sinks got %d windows of %d slots",
			st.UDFCalls, st.Materialized, c.windows.Load(), c.slots.Load())
	}
	return nil
}

// TestMergedStreamingPass streams a whole pattern set in one pass of its
// merged trie through MatchTrieCtx: every leaf plan's matches reach that
// plan's own sink exactly once, each tuple indexed by the plan's pattern
// vertices whatever depth the plan ends at. The set is all six
// vertex-induced 4-motifs plus the vertex-induced wedge and triangle, which
// end on inner nodes of the trie; vertex-induced patterns of one size
// exclude each other, so a tuple names its plan and a sink handed
// another plan's match shows. The pass reports one UDF call per window and
// the prefix slots and tail ids of each as materialized. Run on ER(45) and on a graph with hubs, each
// as plain CSR (hub bitmaps where there are hubs), with the bitmaps hidden
// and on the compressed tier (CI: also under -race).
func TestMergedStreamingPass(t *testing.T) {
	var ps []*pattern.Pattern
	for k := 3; k <= 4; k++ {
		all, err := canon.AllConnectedPatterns(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range all {
			ps = append(ps, p.AsVertexInduced())
		}
	}
	tr := mergedTrie(t, ps)
	er, err := dataset.ErdosRenyi(45, 7, 0, 29)
	if err != nil {
		t.Fatal(err)
	}
	for gname, plain := range map[string]*graph.Graph{"er45/": er, "hubbed/": hubbedGraph(t, 0, 29)} {
		want := make([]map[string]int, len(ps))
		auts := make([][][]int, len(ps))
		var total uint64
		for i, p := range ps {
			want[i], auts[i] = map[string]int{}, canon.Automorphisms(p)
			for _, m := range refmatch.Matches(plain, p) {
				want[i][fmt.Sprint(m)]++
				total++
			}
		}
		// planOf names the pattern m is an embedding of in pattern-vertex order.
		planOf := func(m []uint32) int {
		next:
			for i, p := range ps {
				if p.N() != len(m) {
					continue
				}
				for u := range m {
					for v := u + 1; v < len(m); v++ {
						if plain.HasEdge(m[u], m[v]) != p.HasEdge(u, v) {
							continue next
						}
					}
				}
				return i
			}
			return -1
		}

		// A streaming pass has a sink for every plan or does not start.
		for _, bad := range [][]Sink{make([]Sink, len(ps)), {EachMatch(func(int, []uint32) {})}} {
			if _, _, err := MatchTrieCtx(context.Background(), plain, tr, bad, ExecOptions{}, nil); err == nil {
				t.Errorf("a pass over %d plans accepted %d sinks, empty ones among them or too few", len(ps), len(bad))
			}
		}

		compressed, err := graph.Compress(plain, 8)
		if err != nil {
			t.Fatal(err)
		}
		for name, g := range map[string]graph.Adjacency{"plain": plain, "hub rows hidden": noHubRows{plain}, "compressed": compressed} {
			for _, threads := range []int{1, 4} {
				var mu sync.Mutex
				got := make([]map[string]int, len(ps))
				for i := range got {
					got[i] = map[string]int{}
				}
				strays := 0
				var tally windowTally
				sinks := make([]Sink, len(ps))
				for i := range ps {
					sinks[i] = tally.sink(func(_ int, m []uint32) {
						mu.Lock()
						defer mu.Unlock()
						if planOf(m) != i {
							strays++
							return
						}
						got[i][fmt.Sprint(canon.CanonicalMatch(ps[i], m, auts[i]))]++
					})
				}
				counts, st, err := MatchTrieCtx(context.Background(), g, tr, sinks, ExecOptions{Threads: threads}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if strays != 0 {
					t.Errorf("%s threads=%d: %d tuples are no embedding of their sink's pattern in pattern-vertex order", gname+name, threads, strays)
				}
				for i, p := range ps {
					if counts[i] != uint64(len(want[i])) || len(got[i]) != len(want[i]) {
						t.Errorf("%s threads=%d %v: counted %d, delivered %d distinct, oracle %d", gname+name, threads, p, counts[i], len(got[i]), len(want[i]))
					}
					for k, n := range want[i] {
						if got[i][k] != n {
							t.Errorf("%s threads=%d %v: oracle match %s delivered %d times", gname+name, threads, p, k, got[i][k])
						}
					}
				}
				if err := tally.check(st); err != nil || st.Matches != total {
					t.Errorf("%s threads=%d: %d matches, oracle %d; %v", gname+name, threads, st.Matches, total, err)
				}
			}
		}
	}
}
