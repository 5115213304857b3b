package core

import (
	"context"
	"strings"
	"testing"

	"morphing/internal/pattern"
)

// TestWriteDOT renders the Appendix A.2 selection's S-DAG and checks the
// structural invariants a Graphviz consumer relies on: one node per
// structure, anti-edge annotations on non-clique structures, the chosen
// alternative set highlighted with its mined variants, and query
// structures marked.
func TestWriteDOT(t *testing.T) {
	queries := []*pattern.Pattern{
		pattern.FourStar().AsVertexInduced(),
		pattern.Path(4).AsVertexInduced(),
		pattern.FourCycle().AsVertexInduced(),
	}
	d, err := BuildSDAG(queries)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(context.Background(), d, queries, appendixA2Costs(t), PolicyAny, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := d.WriteDOT(&b, sel); err != nil {
		t.Fatal(err)
	}
	dot := b.String()

	if !strings.HasPrefix(dot, "digraph sdag {") || !strings.HasSuffix(strings.TrimSpace(dot), "}") {
		t.Fatalf("not a DOT digraph:\n%s", dot)
	}
	// One declared node per S-DAG structure (6 for this query set: star,
	// path, cycle, tailed triangle, diamond, clique).
	if got := strings.Count(dot, "[label="); got != d.Len() {
		t.Errorf("declared %d nodes, want %d\n%s", got, d.Len(), dot)
	}
	// Every structure except the 4-clique apex has non-edges, annotated
	// as potential anti-edges.
	if got := strings.Count(dot, "anti if vertex-induced"); got != d.Len()-1 {
		t.Errorf("%d anti-edge annotations, want %d\n%s", got, d.Len()-1, dot)
	}
	// The appendix selection mines all six structures edge-induced; each
	// chosen node is highlighted and carries its variant annotation.
	if got := strings.Count(dot, "mine edge-induced"); got != len(sel.Mine) {
		t.Errorf("%d variant annotations, want %d\n%s", got, len(sel.Mine), dot)
	}
	if got := strings.Count(dot, "fillcolor=lightblue"); got != len(sel.Mine) {
		t.Errorf("%d highlighted nodes, want %d\n%s", got, len(sel.Mine), dot)
	}
	// The three query structures get the bold border.
	if got := strings.Count(dot, "penwidth=3"); got != 3 {
		t.Errorf("%d query marks, want 3\n%s", got, dot)
	}
	// Lattice edges: each of the 5 non-apex structures links up to at
	// least one superpattern.
	if got := strings.Count(dot, " -> "); got < d.Len()-1 {
		t.Errorf("only %d edges, want at least %d\n%s", got, d.Len()-1, dot)
	}
	// Deterministic output: a second render must be byte-identical
	// (golden files and diffs depend on it).
	var b2 strings.Builder
	if err := d.WriteDOT(&b2, sel); err != nil {
		t.Fatal(err)
	}
	if b2.String() != dot {
		t.Error("WriteDOT output is not deterministic across calls")
	}
}

// TestWriteDOTNoSelection renders without an overlay: no highlighting,
// no variant annotations.
func TestWriteDOTNoSelection(t *testing.T) {
	queries := []*pattern.Pattern{pattern.FourCycle()}
	d, err := BuildSDAG(queries)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := d.WriteDOT(&b, nil); err != nil {
		t.Fatal(err)
	}
	dot := b.String()
	if strings.Contains(dot, "fillcolor") || strings.Contains(dot, "mine ") || strings.Contains(dot, "penwidth") {
		t.Errorf("overlay attributes present without a selection:\n%s", dot)
	}
	if got := strings.Count(dot, "[label="); got != d.Len() {
		t.Errorf("declared %d nodes, want %d", got, d.Len())
	}
}
