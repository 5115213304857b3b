// Quickstart: generate a small synthetic graph, count the 4-vertex motifs
// with and without Subgraph Morphing, and show that the results agree
// while the morphed run does less set-operation work.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"morphing"
)

func main() {
	// A scaled-down MiCo-style co-authorship graph (power-law degrees,
	// skewed labels). Scale 0.01 is ~1000 vertices.
	g, err := morphing.GenerateDataset("MI", 0.01)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("data graph: %d vertices, %d edges, %d labels\n",
		g.NumVertices(), g.NumEdges(), g.NumLabels())

	eng, err := morphing.NewEngine("peregrine", 0)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	baseline, err := morphing.CountMotifs(ctx, g, 4, eng, morphing.Options{Morph: false})
	if err != nil {
		log.Fatal(err)
	}
	morphed, err := morphing.CountMotifs(ctx, g, 4, eng, morphing.Options{Morph: true})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n4-vertex motif census (vertex-induced):")
	fmt.Printf("%-40s %12s %12s\n", "pattern", "baseline", "morphed")
	for i, p := range baseline.Patterns {
		fmt.Printf("%-40s %12d %12d\n", p, baseline.Counts[i], morphed.Counts[i])
		if baseline.Counts[i] != morphed.Counts[i] {
			log.Fatal("morphing changed a result — this is a bug")
		}
	}

	fmt.Println("\nwhere the work went:")
	fmt.Printf("  baseline: %d set ops over %d elements\n",
		baseline.Stats.Mining.SetOps, baseline.Stats.Mining.SetElems)
	fmt.Printf("  morphed:  %d set ops over %d elements (%.1fx fewer elements)\n",
		morphed.Stats.Mining.SetOps, morphed.Stats.Mining.SetElems,
		float64(baseline.Stats.Mining.SetElems)/float64(morphed.Stats.Mining.SetElems))
	fmt.Printf("  pattern transformation took %v, result conversion %v\n",
		morphed.Stats.Transform, morphed.Stats.Convert)

	sel := morphed.Stats.Selection
	fmt.Printf("\nalternative pattern set (%d patterns, modeled cost %.0f -> %.0f):\n",
		len(sel.Mine), sel.CostBefore, sel.CostAfter)
	for _, c := range sel.Mine {
		fmt.Printf("  mine %v\n", c.Pattern)
	}
}
