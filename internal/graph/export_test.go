package graph

// DropLabelRows forgets the label-row index so the next LabelRow builds it
// again (BenchmarkLabelIndexBuild).
func (g *Graph) DropLabelRows() { g.lrows = labelRowsMemo{} }
