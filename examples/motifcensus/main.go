// Motif census across engines: run 3-, 4- and 5-motif counting on a
// social-network-style graph with every engine model that supports
// vertex-induced matching, comparing wall-clock with and without
// Subgraph Morphing — a miniature of the paper's Fig. 12.
//
//	go run ./examples/motifcensus [-scale 0.003] [-size 4]
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
	size := flag.Int("size", 4, "motif size (3-5)")
	flag.Parse()
	ctx := context.Background()

	g, err := morphing.GenerateDataset("OK", *scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Orkut-style graph: %d vertices, %d edges\n\n", g.NumVertices(), g.NumEdges())

	for _, name := range []string{"peregrine", "autozero"} {
		eng, err := morphing.NewEngine(name, 0)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		base, err := morphing.CountMotifs(ctx, g, *size, eng, morphing.Options{})
		if err != nil {
			log.Fatal(err)
		}
		baseT := time.Since(start)

		start = time.Now()
		morphed, err := morphing.CountMotifs(ctx, g, *size, eng, morphing.Options{Morph: true})
		if err != nil {
			log.Fatal(err)
		}
		morphT := time.Since(start)

		for i := range base.Counts {
			if base.Counts[i] != morphed.Counts[i] {
				log.Fatalf("%s: count mismatch on %v", name, base.Patterns[i])
			}
		}
		fmt.Printf("%-10s %d-MC  baseline %-12v morphed %-12v speedup %.2fx  (total %d motifs)\n",
			eng.Name(), *size, baseT.Round(time.Millisecond), morphT.Round(time.Millisecond),
			float64(baseT)/float64(morphT), morphed.Total())
	}

	fmt.Println("\nper-motif counts (morphing-verified):")
	eng, _ := morphing.NewEngine("peregrine", 0)
	res, err := morphing.CountMotifs(ctx, g, *size, eng, morphing.Options{Morph: true})
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range res.Patterns {
		fmt.Printf("  %-44s %d\n", p, res.Counts[i])
	}
}
