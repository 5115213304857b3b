package core

import (
	"morphing/internal/aggr"
	"morphing/internal/engine"
)

// mniSink turns one pattern's match stream into its full MNI table (the
// map-reduce structure of the FSM UDF in Fig. 9). Each worker the pass
// starts binds a table of its own (no lock where matches land) and records
// only the symmetry-broken representatives the engine emits: a merged pass
// fills it a settled window per call (bind), MineMNITable a match per call.
// table merges the per-worker tables and applies the pattern's
// automorphisms once, to whole columns (aggr.Table.Saturate).
type mniSink struct {
	width  int
	tables []*aggr.Table // per worker, in worker-ID order
}

// add appends the next worker's table and returns it.
func (s *mniSink) add() *aggr.Table {
	t := aggr.NewTable(s.width)
	s.tables = append(s.tables, t)
	return t
}

// bind returns worker's window consumer: its table's InsertTail.
func (s *mniSink) bind(int) engine.Window { return s.add().InsertTail }

// table merges the per-worker tables and saturates the result under auts.
// Call it after the engine has returned.
func (s *mniSink) table(auts [][]int) *aggr.Table {
	out := aggr.NewTable(s.width)
	for _, t := range s.tables {
		out.Merge(t)
	}
	out.Saturate(auts)
	return out
}
