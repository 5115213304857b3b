// Filter-free vertex-induced counting on engines without anti-edge
// support (the paper's GraphPi/BigJoin integration, Fig. 14): the
// baseline matches edge-induced patterns and rejects matches with extra
// edges through a branchy Filter UDF; Subgraph Morphing computes the same
// counts from edge-induced alternatives with no UDF at all.
//
// This example drops to the mid-level API (Runner/engines are reachable
// through the facade types) to show the two strategies side by side.
//
//	go run ./examples/filterfree [-scale 0.003]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"morphing"
)

func main() {
	scale := flag.Float64("scale", 0.003, "dataset scale factor")
	flag.Parse()
	ctx := context.Background()

	g, err := morphing.GenerateDataset("MG", *scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MAG-style graph: %d vertices, %d edges\n\n", g.NumVertices(), g.NumEdges())

	// Vertex-induced queries: tailed triangle and chordal 4-cycle.
	tt, _ := morphing.PatternByName("tailed-triangle")
	c4c, _ := morphing.PatternByName("chordal-4-cycle")
	queries := []*morphing.Pattern{tt.AsVertexInduced(), c4c.AsVertexInduced()}

	for _, name := range []string{"graphpi", "bigjoin"} {
		eng, err := morphing.NewEngine(name, 0)
		if err != nil {
			log.Fatal(err)
		}
		// Morphed: vertex-induced counts from edge-induced alternatives.
		start := time.Now()
		counts, stats, err := morphing.CountSubgraphs(ctx, g, queries, eng, morphing.Options{Morph: true})
		if err != nil {
			log.Fatal(err)
		}
		morphT := time.Since(start)

		fmt.Printf("%s (morphed, UDF-free):\n", eng.Name())
		for i, q := range queries {
			fmt.Printf("  %-42s %d matches\n", q, counts[i])
		}
		fmt.Printf("  time %v; alternative set:", morphT.Round(time.Millisecond))
		for _, c := range stats.Selection.Mine {
			fmt.Printf(" %v |", c.Pattern)
		}
		fmt.Println()

		// Baseline without morphing is impossible on these engines:
		if _, _, err := morphing.CountSubgraphs(ctx, g, queries, eng, morphing.Options{}); err != nil {
			fmt.Printf("  baseline without morphing: %v\n\n", err)
		}
	}

	// The same queries on Peregrine, which matches anti-edges natively,
	// as a cross-engine correctness check.
	per, _ := morphing.NewEngine("peregrine", 0)
	want, _, err := morphing.CountSubgraphs(ctx, g, queries, per, morphing.Options{})
	if err != nil {
		log.Fatal(err)
	}
	gp, _ := morphing.NewEngine("graphpi", 0)
	got, _, err := morphing.CountSubgraphs(ctx, g, queries, gp, morphing.Options{Morph: true})
	if err != nil {
		log.Fatal(err)
	}
	for i := range queries {
		if want[i] != got[i] {
			log.Fatalf("engines disagree on %v: %d vs %d", queries[i], want[i], got[i])
		}
	}
	fmt.Println("cross-engine check: GraphPi-morphed counts match Peregrine-native counts")
}
