// Frequent subgraph mining on a labeled co-authorship-style graph: the
// paper's UDF-bound workload (Fig. 13c). Morphing steers heavy labeled
// patterns to vertex-induced variants with fewer matches, cutting MNI
// UDF invocations.
//
//	go run ./examples/frequentminer [-scale 0.004] [-edges 3] [-support 0]
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
	scale := flag.Float64("scale", 0.004, "dataset scale factor")
	edges := flag.Int("edges", 3, "maximum pattern edges (k-FSM)")
	support := flag.Int("support", 0, "MNI support threshold (0 = |V|/25)")
	flag.Parse()

	g, err := morphing.GenerateDataset("MI", *scale)
	if err != nil {
		log.Fatal(err)
	}
	minSup := *support
	if minSup == 0 {
		minSup = g.NumVertices() / 25
		if minSup < 2 {
			minSup = 2
		}
	}
	fmt.Printf("MiCo-style graph: %d vertices, %d edges, %d labels; support >= %d\n\n",
		g.NumVertices(), g.NumEdges(), g.NumLabels(), minSup)

	eng, err := morphing.NewEngine("peregrine", 0)
	if err != nil {
		log.Fatal(err)
	}

	run := func(morph bool) ([]morphing.FrequentPattern, time.Duration, uint64) {
		start := time.Now()
		freq, stats, err := morphing.MineFrequent(context.Background(), g, eng, morphing.FSMOptions{
			MaxEdges:   *edges,
			MinSupport: minSup,
			Morph:      morph,
		})
		if err != nil {
			log.Fatal(err)
		}
		return freq, time.Since(start), stats.Mining.UDFCalls
	}

	baseFreq, baseT, baseUDF := run(false)
	morphFreq, morphT, morphUDF := run(true)

	if len(baseFreq) != len(morphFreq) {
		log.Fatalf("morphing changed the frequent set: %d vs %d", len(baseFreq), len(morphFreq))
	}
	fmt.Printf("%d-FSM baseline: %v (%d MNI UDF calls)\n", *edges, baseT.Round(time.Millisecond), baseUDF)
	fmt.Printf("%d-FSM morphed:  %v (%d MNI UDF calls, %.2fx speedup)\n\n",
		*edges, morphT.Round(time.Millisecond), morphUDF, float64(baseT)/float64(morphT))

	fmt.Printf("frequent patterns (%d):\n", len(morphFreq))
	for _, f := range morphFreq {
		fmt.Printf("  support %-6d %v\n", f.Support, f.Pattern)
	}
}
