package core

import (
	"morphing/internal/aggr"
	"morphing/internal/engine"
)

// mniSink turns one pattern's match stream into its full MNI table (the
// map-reduce structure of the FSM UDF in Fig. 9). Each worker ID owns a
// shard, created on its first match (engine.Shards: no lock on the
// per-match path), and records only the symmetry-broken representative
// the engine emits; table merges the shards and applies the pattern's
// automorphisms once, to whole columns (aggr.Table.Saturate).
type mniSink struct {
	width  int
	shards engine.Shards[aggr.Table]
}

func newMNISink(width int) *mniSink {
	s := &mniSink{width: width}
	s.shards.New = func() *aggr.Table { return aggr.NewTable(width) }
	return s
}

// insert records match m for worker. Calls with one worker ID must not
// overlap (they come from one engine worker); distinct IDs may.
func (s *mniSink) insert(worker int, m []uint32) { s.shards.For(worker).Insert(m) }

// table merges the shards and saturates the result under auts. Call it
// after the engine has returned.
func (s *mniSink) table(auts [][]int) *aggr.Table {
	out := aggr.NewTable(s.width)
	s.shards.Each(func(t *aggr.Table) { out.Merge(t) })
	out.Saturate(auts)
	return out
}
