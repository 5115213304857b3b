package core

import (
	"morphing/internal/aggr"
	"morphing/internal/engine"
)

// mniSink turns one pattern's match stream into its full MNI table (the
// map-reduce structure of the FSM UDF in Fig. 9). Each worker ID owns a
// shard (engine.Shards: no lock where matches land) and records only the
// symmetry-broken representatives the engine emits: a merged pass binds
// each worker's shard once (bind) and fills it a settled window per call,
// MineMNITable's Engine.MatchCtx finds it per match (insert). table merges the
// shards and applies the pattern's automorphisms once, to whole columns
// (aggr.Table.Saturate).
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

// bind returns worker's window consumer: its shard's InsertTail.
func (s *mniSink) bind(worker int) engine.Window { return s.shards.For(worker).InsertTail }

// table merges the shards and saturates the result under auts. Call it
// after the engine has returned.
func (s *mniSink) table(auts [][]int) *aggr.Table {
	out := aggr.NewTable(s.width)
	s.shards.Each(func(t *aggr.Table) { out.Merge(t) })
	out.Saturate(auts)
	return out
}
