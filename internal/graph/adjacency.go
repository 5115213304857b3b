package graph

// Adjacency is the read-side contract every matching engine consumes: a
// sorted-CSR view of an immutable undirected simple graph. Two storage
// tiers implement it — the in-RAM *Graph and the delta-varint
// *CompressedGraph (heap- or mmap-backed) — so the engines, the runner
// and the serving layer are storage-agnostic.
//
// Row lifetime contract: a row is either borrowed from the graph or
// owned by the caller, never by the handle.
//
//   - Neighbors returns a row the caller may keep for as long as the
//     graph stays open: plain CSR hands out an alias of its immutable
//     storage, and so does a decoding tier for a row it keeps decoded (the
//     compressed tier's hot rows); any other row a decoding tier
//     allocates afresh per call. It is the cold-path form (whole-graph
//     scans, tests, UDFs).
//   - Row is the hot-path form: a decoding tier decodes into the buffer
//     the caller passes and returns it (regrown when the row did not
//     fit) both as the row and as the buffer to pass next time; plain
//     CSR — and a decoding tier for a row it keeps decoded — lends an
//     alias of immutable storage and hands the buffer back untouched.
//     A decoded row is valid until the caller reuses or writes the
//     returned buffer, a lent one while the graph stays open — the
//     handle keeps no reference to the caller's buffer, so no other call
//     on the handle (Row with another buffer, Neighbors, HasEdge) can
//     invalidate either. Executors keep one such buffer per bound depth
//     (engine.Pins), which is what makes a bound vertex's row decode
//     once however many deeper levels intersect against it.
//
// A caller never writes to a row it did not decode into its own buffer:
// a lent row is the graph's, shared by every worker.
//
// Concurrency contract: the handle returned by View is NOT safe for
// concurrent use; each worker goroutine must obtain its own view. The
// underlying graph (the receiver View was called on) is immutable and
// safe to share. A plain *Graph returns itself from View — its rows are
// borrowed from immutable storage, so sharing is free.
type Adjacency interface {
	// NumVertices returns the number of vertices (IDs dense in [0, n)).
	NumVertices() int
	// NumEdges returns the number of undirected edges.
	NumEdges() uint64
	// Degree returns the degree of v in O(1).
	Degree(v uint32) int
	// MaxDegree returns the maximum vertex degree (engines size their
	// scratch buffers from it, so it must not require a full decode).
	MaxDegree() int
	// Neighbors returns the sorted, duplicate-free adjacency row of v as
	// a slice the caller may keep (see the row lifetime contract above).
	Neighbors(v uint32) []uint32
	// Row returns the sorted, duplicate-free adjacency row of v, decoded
	// into buf where the tier decodes the row, plus the buffer to pass to
	// the next Row call. buf may be nil. See the row lifetime contract.
	Row(v uint32, buf []uint32) (row, next []uint32)
	// HasEdge reports whether {u,v} is an edge.
	HasEdge(u, v uint32) bool
	// Labeled reports whether the graph carries vertex labels.
	Labeled() bool
	// Label returns the label of v, or -1 for unlabeled graphs.
	Label(v uint32) int32
	// Labels exposes the per-vertex label slice (nil when unlabeled) so
	// kernels can fuse label filters into set operations.
	Labels() []int32
	// NumLabels returns the number of distinct labels (0 when unlabeled).
	NumLabels() int
	// HubBits returns the bitmap adjacency row of v when v is an indexed
	// hub, nil otherwise (see Graph.HubBits). Implementations without a
	// hub index return nil for every vertex.
	HubBits(v uint32) []uint64
	// View returns a handle for one worker goroutine. Plain graphs
	// return themselves; decoding tiers return a handle with a private
	// probe buffer and decode counters over the graph's shared hot rows.
	View() Adjacency
}

// Compile-time interface checks for every storage tier.
var (
	_ Adjacency = (*Graph)(nil)
	_ Adjacency = (*CompressedGraph)(nil)
	_ Adjacency = (*compressedView)(nil)
)

// View returns g itself: plain CSR rows alias immutable storage, so one
// handle is safe to share across workers.
func (g *Graph) View() Adjacency { return g }

// Row returns the CSR alias of v's row and hands buf back untouched.
func (g *Graph) Row(v uint32, buf []uint32) (row, next []uint32) {
	return g.Neighbors(v), buf
}

// OrigIDs returns the stored vertex permutation mapping the current
// (possibly renumbered) vertex IDs back to the IDs the graph was built
// with, or nil when the graph was never renumbered. orig[new] = old.
func (g *Graph) OrigIDs() []uint32 { return g.orig }

// SetOrigIDs attaches a renumbering permutation (orig[new] = old) so
// results can be mapped back to pre-renumbering vertex IDs. The slice is
// retained; len must equal NumVertices.
func (g *Graph) SetOrigIDs(orig []uint32) { g.orig = orig }

// Summary and partitioning helpers that historically took *Graph accept
// any Adjacency; see summary.go and partition.go.
