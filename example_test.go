package morphing_test

import (
	"context"
	"fmt"
	"log"

	"morphing"
)

// The diamond graph: a 4-cycle 0-1-2-3 plus the diagonal {0,2}.
func diamond() *morphing.Graph {
	g, err := morphing.NewGraph(4, [][2]uint32{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	return g
}

func ExampleCountSubgraphs() {
	g := diamond()
	eng, err := morphing.NewEngine("peregrine", 1)
	if err != nil {
		log.Fatal(err)
	}
	tri, _ := morphing.PatternByName("triangle")
	c4, _ := morphing.PatternByName("4-cycle")
	counts, _, err := morphing.CountSubgraphs(context.Background(), g,
		[]*morphing.Pattern{tri, c4.AsVertexInduced()}, eng, morphing.Options{Morph: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("triangles:", counts[0])
	fmt.Println("vertex-induced 4-cycles:", counts[1])
	// Output:
	// triangles: 2
	// vertex-induced 4-cycles: 0
}

func ExampleMorphingEquations() {
	c4, err := morphing.PatternByName("4-cycle")
	if err != nil {
		log.Fatal(err)
	}
	eqE, eqV, err := morphing.MorphingEquations(c4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(eqE)
	fmt.Println(eqV)
	// Output:
	// [4-cycle]E = [4-cycle]V + [chordal-4-cycle]V + 3·[4-clique]
	// [4-cycle]V = [4-cycle]E - [chordal-4-cycle]V - 3·[4-clique]
}

func ExampleParsePattern() {
	p, err := morphing.ParsePattern("n=4;e=0-1,1-2,2-3,3-0;v")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(p.N(), "vertices,", p.EdgeCount(), "edges,", p.AntiEdgeCount(), "anti-edges")
	// Output:
	// 4 vertices, 4 edges, 2 anti-edges
}

func ExampleCountCliques() {
	g := diamond()
	eng, err := morphing.NewEngine("autozero", 1)
	if err != nil {
		log.Fatal(err)
	}
	for k := 2; k <= 4; k++ {
		c, _, err := morphing.CountCliques(context.Background(), g, k, eng)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d-cliques: %d\n", k, c)
	}
	// Output:
	// 2-cliques: 5
	// 3-cliques: 2
	// 4-cliques: 0
}
