package graph

// DropLabelRows forgets the label-row index so the next LabelRow builds it
// again (BenchmarkLabelIndexBuild).
func (g *Graph) DropLabelRows() { g.lrows = labelRowsMemo{} }

// HotRow returns v's row as the hot rows hold it and whether v is hot,
// building the hot rows if need be.
func (c *CompressedGraph) HotRow(v uint32) ([]uint32, bool) { return c.hotRows().row(v) }

// HotMinDegree returns the degree from which a vertex is hot, 0 when none
// is.
func (c *CompressedGraph) HotMinDegree() int { return c.hotRows().minDeg }

// DecodedRow decodes v's row from the stream, past the hot rows.
func (c *CompressedGraph) DecodedRow(v uint32) []uint32 { return c.decodeRow(v, nil) }

// OpenHeap is Open reading the file into the heap, the path a platform
// without memory maps takes.
func OpenHeap(path string, opts OpenOptions) (*Handle, error) { return open(path, opts, false) }
