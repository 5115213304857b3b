package engine

import (
	"slices"
	"time"
)

// How a streaming pass hands its matches over: the sink contract, and the
// executor's side of it. settle makes one call per settled window, through
// deliver, whatever the sink; a Visitor gets its matches one call each
// through the adapter each.

// Window receives one settled candidate window of a plan in a streaming
// pass: the matches m with m[pos] set, in turn, to each vertex of tail.
// The other slots of m hold the prefix bound above the window; tail is
// ascending, never empty, and holds none of the prefix's vertices. Both
// are executor scratch, valid for the call only.
type Window func(m []uint32, pos int, tail []uint32)

// Sink is one plan's consumer in a streaming pass (MatchTrieCtx). With
// Bind set, the pass calls Bind once per worker, with the worker's ID,
// before the worker starts and hands that worker's windows of the plan to
// the Window it returns, one call each; calls from one worker never
// overlap. Otherwise Visit gets one call per match.
type Sink struct {
	Visit Visitor
	Bind  func(worker int) Window
}

// Sinks returns one per-match Sink per visitor.
func Sinks(visits []Visitor) []Sink {
	out := make([]Sink, len(visits))
	for i, v := range visits {
		out[i].Visit = v
	}
	return out
}

// without copies window c less its bound vertices x (both ascending, x a
// subset of c) into the worker's tail scratch.
func (w *trieWorker) without(c, x []uint32) []uint32 {
	t := w.tail[:0]
	for _, u := range x {
		i, _ := slices.BinarySearch(c, u)
		t, c = append(t, c[:i]...), c[i+1:]
	}
	return append(t, c...)
}

// deliver hands plan idx's settled window to the plan's sink in one call:
// the match with the prefix bound above depth written, and the tail that
// completes it at the plan's last pattern vertex. A window sink's call is
// one UDF call that materializes the prefix and the tail, and its matches
// are counted, and met by the fault injector, once it returns; a Visitor's
// adapter (each) does all of that per match.
func (w *trieWorker) deliver(idx int, tail []uint32, depth int) {
	o := &w.outs[idx]
	for j, u := range o.order[:depth] {
		o.m[u] = w.match[j]
	}
	var t0 time.Time
	if w.instrument {
		t0 = time.Now()
	}
	o.take(o.m, o.last, tail)
	if o.visit != nil {
		return
	}
	if w.instrument {
		w.st.UDFTime += time.Since(t0)
	}
	n := uint64(len(tail))
	w.counts[idx] += n
	w.st.UDFCalls++
	w.st.Materialized += uint64(depth) + n
	w.pass.fi.MatchesCounted(w.id, n)
}

// each is the adapter between a window and a Visitor sink: one visitor
// call per match, in tail order, each match counted before its call — the
// loop the per-match streaming workloads' time goes to, so everything a
// match needs is held in locals.
func (w *trieWorker) each(idx int, m []uint32, pos int, tail []uint32) {
	count, visit := &w.counts[idx], w.outs[idx].visit
	slot, id, instrument := &m[pos], w.id, w.instrument
	for _, v := range tail {
		*count++
		var t0 time.Time
		if instrument {
			t0 = time.Now()
		}
		*slot = v
		w.st.Materialized += uint64(len(m))
		if instrument {
			w.st.MaterializeTime += time.Since(t0)
			t0 = time.Now()
		}
		w.st.UDFCalls++
		visit(id, m)
		if instrument {
			w.st.UDFTime += time.Since(t0)
		}
	}
}
