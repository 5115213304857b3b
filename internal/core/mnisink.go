package core

import (
	"sync"
	"sync/atomic"

	"morphing/internal/aggr"
)

// mniSink turns one pattern's match stream into its full MNI table (the
// map-reduce structure of the FSM UDF in Fig. 9). Each worker ID owns a
// shard, created on its first match, and records only the symmetry-broken
// representative the engine emits; table merges the shards and applies
// the pattern's automorphisms once, to whole columns (aggr.Table.Saturate).
//
// Engines may use any number of worker IDs (engine.Visitor), so the shard
// list grows on first sight of an ID: growth copies the list under mu and
// publishes the copy, and a worker reads only its own slot, which nobody
// else writes — the per-match path takes no lock.
type mniSink struct {
	width  int
	mu     sync.Mutex
	shards atomic.Pointer[[]*aggr.Table]
}

func newMNISink(width int) *mniSink { return &mniSink{width: width} }

// insert records match m for worker. Calls with one worker ID must not
// overlap (they come from one engine worker); distinct IDs may.
func (s *mniSink) insert(worker int, m []uint32) {
	if p := s.shards.Load(); p != nil && worker < len(*p) && (*p)[worker] != nil {
		(*p)[worker].Insert(m)
		return
	}
	s.own(worker).Insert(m)
}

// own creates worker's shard.
func (s *mniSink) own(worker int) *aggr.Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	var old []*aggr.Table
	if p := s.shards.Load(); p != nil {
		old = *p
	}
	grown := make([]*aggr.Table, max(len(old), worker+1))
	copy(grown, old)
	t := aggr.NewTable(s.width)
	grown[worker] = t
	s.shards.Store(&grown)
	return t
}

// table merges the shards and saturates the result under auts. Call it
// after the engine has returned.
func (s *mniSink) table(auts [][]int) *aggr.Table {
	out := aggr.NewTable(s.width)
	if p := s.shards.Load(); p != nil {
		for _, t := range *p {
			if t != nil {
				out.Merge(t)
			}
		}
	}
	out.Saturate(auts)
	return out
}
