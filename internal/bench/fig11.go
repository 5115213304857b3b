package bench

import (
	"context"
	"fmt"
	"io"

	"morphing/internal/dataset"
	"morphing/internal/graph"
	"morphing/internal/pattern"
)

// runFig11 prints the evaluation inventory: the pattern set standing in
// for Fig. 11a and the dataset recipes of Fig. 11b, both at full size and
// at the configured scale (with generated statistics for the scaled
// versions).
func runFig11(ctx context.Context, cfg Config, w io.Writer) error {
	fmt.Fprintln(w, "# Fig. 11a evaluation patterns (see DESIGN.md for the p1..p10 mapping)")
	csv(w, "name", "vertices", "edges", "encoding")
	for _, np := range pattern.Fig11Patterns() {
		csv(w, np.Name, np.Pattern.N(), np.Pattern.EdgeCount(), np.Pattern.String())
	}
	fmt.Fprintln(w, "# Fig. 11b data graph recipes (full-size shape targets)")
	csv(w, "graph", "vertices", "avg_degree", "labels")
	for _, r := range dataset.All() {
		csv(w, r.Name, r.Vertices, r.AvgDegree, r.Labels)
	}
	fmt.Fprintf(w, "# generated at scale %v\n", cfg.Scale)
	csv(w, "graph", "vertices", "edges", "max_degree", "avg_degree", "labels")
	names := graphsFor(cfg, 3, "MI", "MG", "PR", "OK", "FR")
	for _, name := range names {
		g, err := loadGraph(cfg, name)
		if err != nil {
			return err
		}
		s := graph.Summarize(g)
		csv(w, name, s.NumVertices, s.NumEdges, s.MaxDegree, s.AvgDegree, g.NumLabels())
	}
	return nil
}
