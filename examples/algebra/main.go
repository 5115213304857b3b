// Algebra tour: print the Fig. 7 morphing identities for the common
// 4-vertex patterns and verify each one numerically against brute-force
// counts on a small random graph — the paper's Eq. 1 made executable.
//
//	go run ./examples/algebra
package main

import (
	"context"
	"fmt"
	"log"

	"morphing"
)

func main() {
	g, err := morphing.GenerateDataset("MI", 0.001)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := morphing.NewEngine("peregrine", 0)
	if err != nil {
		log.Fatal(err)
	}
	count := func(p *morphing.Pattern) uint64 {
		c, _, err := eng.CountCtx(context.Background(), g, p)
		if err != nil {
			log.Fatal(err)
		}
		return c
	}

	fmt.Printf("verifying morphing identities on a %d-vertex graph\n\n", g.NumVertices())
	for _, name := range []string{"4-star", "tailed-triangle", "4-cycle", "chordal-4-cycle"} {
		p, err := morphing.PatternByName(name)
		if err != nil {
			log.Fatal(err)
		}
		eqE, eqV, err := morphing.MorphingEquations(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(" ", eqE)
		fmt.Println(" ", eqV)

		// Check the edge-induced identity numerically: count both sides.
		lhs := count(p.AsEdgeInduced())
		// The right-hand side is exactly what morphing computes; run the
		// whole pipeline and compare.
		morphed, _, err := morphing.CountSubgraphs(g,
			[]*morphing.Pattern{p.AsEdgeInduced()}, eng, morphing.Options{Morph: true})
		if err != nil {
			log.Fatal(err)
		}
		status := "OK"
		if morphed[0] != lhs {
			status = "MISMATCH"
		}
		fmt.Printf("    direct count %d, morphed pipeline %d  [%s]\n\n", lhs, morphed[0], status)
		if status != "OK" {
			log.Fatal("identity violated — this is a bug")
		}
	}
}
