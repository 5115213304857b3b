package engine_test

import (
	"context"
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

// TestMarkedDifferenceLeafIsTheMerge holds every count a marked leaf makes
// (a count-only difference leaf over a held base, counted by bit probes
// into the base's bitmap) against the merge it replaces,
// setops.DifferenceCountF over the same base, row and window. The vertex-
// induced 4-vertex patterns and a sample of the 5-vertex ones run as
// merged tries on one worker over a random graph of 5,000 vertices, a
// graph of 300 with hubs and another random one of 5,000, in that order:
// a pooled worker moves between them with its bitmaps, and no bit of a
// larger graph may survive into a smaller one or back. A last pass runs on
// three workers. The test fails unless sibling marked leaves ran
// interleaved under one parent, and bases of both kinds — built and
// raw — were re-marked after being rebuilt in place, in the buffer the
// leaf marked them from, with other content.
func TestMarkedDifferenceLeafIsTheMerge(t *testing.T) {
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
	type step struct {
		name    string
		gen     func() (*graph.Graph, error)
		threads int
	}
	steps := []step{
		{"random 5000", func() (*graph.Graph, error) { return dataset.ErdosRenyi(5000, 3, 0, 41) }, 1},
		{"hubbed 300", func() (*graph.Graph, error) { return dataset.Hubbed(300, 4, 1, 0, 42) }, 1},
		{"random 5000 again", func() (*graph.Graph, error) { return dataset.ErdosRenyi(5000, 3.5, 0, 43) }, 1},
		{"hubbed 300, three workers", func() (*graph.Graph, error) { return dataset.Hubbed(300, 4, 1, 0, 44) }, 3},
	}

	type held struct {
		at   *uint32 // the base's buffer
		base []uint32
	}
	// Per worker: calls with one worker ID never overlap, so the hook takes
	// no lock.
	type tally struct {
		last                 *plan.TrieNode // the marked leaf that ran last
		bases                map[*plan.TrieNode]*held
		counts, wrong        int
		interleaved          int
		rebuiltRaw, rebuiltB int
	}
	var (
		parent  map[*plan.TrieNode]*plan.TrieNode
		workers [3]tally
	)
	stop := engine.SeeOps(func(s engine.OpSeen) {
		if !s.Marked {
			return
		}
		worker, leaf, base, row, f, n := s.Worker, s.Op.Node, s.Base, s.Cut, s.F, s.N
		var st setops.Stats
		w := &workers[worker]
		w.counts++
		if want := setops.DifferenceCountF(base, row, f, &st); n != want {
			if w.wrong < 10 {
				t.Errorf("marked leaf %d (depth %d): %d, the merge %d (base %d elements, row %d, window [%d, %d))",
					leaf.ID, leaf.Depth, n, want, len(base), len(row), f.Lo, f.Hi)
			}
			w.wrong++
		}
		if w.last != nil && w.last != leaf && parent[w.last] == parent[leaf] {
			w.interleaved++
		}
		w.last = leaf
		h := w.bases[leaf]
		if h == nil {
			h = &held{}
			w.bases[leaf] = h
		}
		if len(base) > 0 && h.at == &base[0] && !slices.Equal(h.base, base) {
			if s.Op.Src == plan.SrcRaw { // an ancestor materialized it
				w.rebuiltRaw++
			} else {
				w.rebuiltB++
			}
		}
		h.at, h.base = nil, append(h.base[:0], base...)
		if len(base) > 0 {
			h.at = &base[0]
		}
	})
	defer stop()

	for _, s := range steps {
		g, err := s.gen()
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range sets {
			tr, err := engine.BuildTrie(peregrine.New(s.threads), g, set)
			if err != nil {
				t.Fatal(err)
			}
			parent = map[*plan.TrieNode]*plan.TrieNode{}
			for i := range workers {
				workers[i].last, workers[i].bases = nil, map[*plan.TrieNode]*held{}
			}
			tr.Walk(func(n *plan.TrieNode) {
				for _, br := range n.Branches {
					for _, c := range br.Children {
						parent[c] = n
					}
				}
			})
			if _, _, err := engine.BacktrackTrieCtx(context.Background(), g, tr, engine.ExecOptions{Threads: s.threads}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	var all tally
	for _, w := range workers {
		all.counts += w.counts
		all.interleaved += w.interleaved
		all.rebuiltB += w.rebuiltB
		all.rebuiltRaw += w.rebuiltRaw
	}
	counts, interleaved, rebuiltB, rebuiltRaw := all.counts, all.interleaved, all.rebuiltB, all.rebuiltRaw
	t.Logf("%d marked counts, interleaved siblings %d, bases rebuilt in place: built %d, raw %d", counts, interleaved, rebuiltB, rebuiltRaw)
	if counts == 0 || interleaved == 0 || rebuiltB == 0 || rebuiltRaw == 0 {
		t.Errorf("marked counts %d, interleaved siblings %d, built bases rebuilt in place %d, raw ones %d: every case must run",
			counts, interleaved, rebuiltB, rebuiltRaw)
	}
}
