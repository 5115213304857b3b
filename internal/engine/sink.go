package engine

import (
	"slices"
	"time"
)

// How a streaming pass hands its matches over: the sink contract, and the
// executor's side of it. settle makes one call per settled window, through
// deliver, whatever the sink.

// Window receives one settled candidate window of a plan in a streaming
// pass: the matches m with m[pos] set, in turn, to each vertex of tail.
// The other slots of m hold the prefix bound above the window; tail is
// ascending, never empty, and holds none of the prefix's vertices. Both
// are executor scratch, valid for the call only; m[pos] is the consumer's
// to write, as when it walks tail one match at a time.
type Window func(m []uint32, pos int, tail []uint32)

// Sink is one plan's consumer in a streaming pass (MatchTrieCtx,
// BacktrackCtx). A pass calls it once for each worker it starts, with IDs
// 0..ExecOptions.ThreadCount()-1 in order, on the caller's goroutine,
// before any worker runs, and hands that worker's windows of the plan to
// the Window it returns, one call each; calls from one worker never
// overlap. Per-worker state is thus a plain slice the sink appends to.
type Sink func(worker int) Window

// EachMatch adapts a per-match Visitor to a Sink: every match of a window,
// one visitor call each, in tail order. A nil visitor is a nil Sink, the
// counting pass.
func EachMatch(v Visitor) Sink {
	if v == nil {
		return nil
	}
	return func(worker int) Window {
		return func(m []uint32, pos int, tail []uint32) {
			for _, u := range tail {
				m[pos] = u
				v(worker, m)
			}
		}
	}
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
// completes it at the plan's last pattern vertex. The call is one UDF call
// that materializes the prefix and the tail; under Instrument, writing the
// prefix is MaterializeTime and the call UDFTime. The window's matches are
// counted, and met by the fault injector, once it returns.
func (w *trieWorker) deliver(idx int, tail []uint32, depth int) {
	o := &w.outs[idx]
	var t0 time.Time
	if w.instrument {
		t0 = time.Now()
	}
	for j, u := range o.order[:depth] {
		o.m[u] = w.match[j]
	}
	if w.instrument {
		t1 := time.Now()
		w.st.MaterializeTime += t1.Sub(t0)
		t0 = t1
	}
	o.take(o.m, o.last, tail)
	if w.instrument {
		w.st.UDFTime += time.Since(t0)
	}
	n := uint64(len(tail))
	w.counts[idx] += n
	w.st.UDFCalls++
	w.st.Materialized += uint64(depth) + n
	w.pass.fi.MatchesCounted(w.id, n)
}
