package enginetest

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"morphing/internal/autozero"
	"morphing/internal/bigjoin"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/graphpi"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
)

// The row lifetime contract, enforced by construction rather than by
// whether a decoder happens to reuse memory: poisonGraph is an Adjacency
// over a plain graph that destroys every row the moment the contract
// (graph.Adjacency) lets it lapse. A row handed out by Row lapses when
// its buffer is passed back, so Row scribbles over the whole returned
// buffer and serves the next row from a fresh allocation — a caller still
// holding the old row reads poison, never the new row and never a
// leftover of the old one. Poison values are out-of-range vertex IDs, so
// a stale read ends in a wrong count or an index panic, both of which the
// tests below turn into failures. Neighbors rows may be kept, so they
// are private copies that are never touched again.
type poisonGraph struct{ *graph.Graph }

const poison = 0xFFFFFFF0

func (p poisonGraph) View() graph.Adjacency { return p }

func (p poisonGraph) Neighbors(v uint32) []uint32 {
	return append([]uint32(nil), p.Graph.Neighbors(v)...)
}

func (p poisonGraph) Row(v uint32, buf []uint32) (row, next []uint32) {
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = poison
	}
	row = p.Neighbors(v)
	return row, row
}

func poisonEngines() []engine.Engine {
	return []engine.Engine{peregrine.New(4), autozero.New(4), graphpi.New(4), bigjoin.New(4)}
}

// TestRowLifetimeUnderPoison runs every engine model over every route on
// symmetric and labeled patterns of 3 to 5 vertices against the poisoning
// Adjacency, four workers each, and requires the answers plain CSR gives.
// CI runs it under -race as well.
func TestRowLifetimeUnderPoison(t *testing.T) {
	labeledTri := pattern.MustNew(3, pattern.Triangle().Edges(), pattern.WithLabels([]int32{0, 1, 0}))
	labeledPath := pattern.MustNew(4, pattern.Path(4).Edges(), pattern.WithLabels([]int32{0, 1, 1, 2}))
	sets := []struct {
		name   string
		labels int
		qs     []*pattern.Pattern
	}{
		{"symmetric", 0, []*pattern.Pattern{
			pattern.Triangle(), pattern.FourCycle().AsVertexInduced(), pattern.FourStar().AsVertexInduced(),
			pattern.FourClique(), pattern.TailedTriangle(), pattern.House(), pattern.Cycle(5),
			pattern.FiveCliqueMinusEdge().AsVertexInduced(),
		}},
		{"labeled", 3, []*pattern.Pattern{
			labeledTri, labeledPath, pattern.ChordalFourCycle(), pattern.Bowtie(),
		}},
	}
	for _, set := range sets {
		g, err := dataset.ErdosRenyi(60, 9, set.labels, 41)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range poisonEngines() {
			for _, route := range runnerRoutes {
				t.Run(fmt.Sprintf("%s/%s/%s", set.name, e.Name(), route.name), func(t *testing.T) {
					want, err := routeCounts(context.Background(), e, g, set.qs, route.oneLeaf, route.shards)
					if err != nil {
						t.Fatal(err)
					}
					got, err := routeCounts(context.Background(), e, poisonGraph{g}, set.qs, route.oneLeaf, route.shards)
					if err != nil {
						t.Fatalf("under poison: %v", err)
					}
					sameCounts(t, set.qs, got, want)
				})
			}
		}
	}
}

func sameCounts(t *testing.T, qs []*pattern.Pattern, got, want []uint64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("query %v: %d under poison, %d on plain CSR", qs[i], got[i], want[i])
		}
	}
}

// TestAntiEdgesUnderPoison does the same for explicit anti-edge patterns
// (difference kernels, disc depths in the bound-vertex correction), which
// the morphing pipeline does not take: the engines that match them
// natively are driven directly, per pattern and through the merged trie.
func TestAntiEdgesUnderPoison(t *testing.T) {
	g, err := dataset.ErdosRenyi(60, 9, 0, 47)
	if err != nil {
		t.Fatal(err)
	}
	qs := append(antiPatterns(t), pattern.House().AsVertexInduced(), pattern.Cycle(5).AsVertexInduced())
	for _, e := range []engine.Engine{peregrine.New(4), autozero.New(4)} {
		want, _, err := e.CountAllCtx(context.Background(), g, qs)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := e.CountAllCtx(context.Background(), poisonGraph{g}, qs)
		if err != nil {
			t.Fatalf("%s under poison: %v", e.Name(), err)
		}
		sameCounts(t, qs, got, want)

		tr, err := engine.BuildTrie(e, g, qs)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err = engine.BacktrackTrieCtx(context.Background(), poisonGraph{g}, tr, engine.ExecOptions{Threads: 4}, nil)
		if err != nil {
			t.Fatalf("%s trie under poison: %v", e.Name(), err)
		}
		sameCounts(t, qs, got, want)
	}
}

// TestMatchStreamUnderPoison covers the materializing path, where every
// level's candidate set is retained across the visitor calls and the
// whole subtree beneath it.
func TestMatchStreamUnderPoison(t *testing.T) {
	g, err := dataset.ErdosRenyi(60, 9, 0, 43)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range poisonEngines() {
		for _, p := range []*pattern.Pattern{pattern.Path(4), pattern.TailedTriangle(), pattern.House(), pattern.Star(5)} {
			want, _, err := e.CountCtx(context.Background(), g, p)
			if err != nil {
				t.Fatal(err)
			}
			var got atomic.Uint64
			if _, err := e.MatchCtx(context.Background(), poisonGraph{g}, p, func(int, []uint32) { got.Add(1) }); err != nil {
				t.Fatalf("%s %v under poison: %v", e.Name(), p, err)
			}
			if got.Load() != want {
				t.Errorf("%s %v: streamed %d matches under poison, counted %d on plain CSR", e.Name(), p, got.Load(), want)
			}
		}
	}
}
