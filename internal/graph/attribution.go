package graph

// WithDecodeAttribution wraps g so that sink tracks every View created
// through the wrapper and sums their decode counts. This is the
// one decode ledger: the runner attaches a fresh DecodeCounters per run,
// so concurrent queries over the same compressed graph see only their own
// decode work, and the registry's process totals are the sum over runs.
//
// Only the compressed tier decodes, so anything else is returned
// unwrapped; likewise a nil sink.
func WithDecodeAttribution(g Adjacency, sink *DecodeCounters) Adjacency {
	c, decodes := g.(*CompressedGraph)
	if !decodes || sink == nil {
		return g
	}
	return &attributedGraph{CompressedGraph: c, sink: sink}
}

// attributedGraph delegates everything to the wrapped graph except View,
// which registers freshly created views with the sink. Calls on the wrapper
// itself (shared-object Neighbors/Row/HasEdge) follow the wrapped
// graph's unattributed shared path — engines do their decode work
// through per-worker views, which is the path that counts.
type attributedGraph struct {
	*CompressedGraph
	sink *DecodeCounters
}

func (a *attributedGraph) View() Adjacency {
	cv := a.view()
	a.sink.track(cv)
	return cv
}
