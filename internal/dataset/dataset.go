// Package dataset generates the evaluation data graphs. The paper uses
// five real-world graphs (Fig. 11b: MiCo, MAG, Products, Orkut,
// Friendster) that are not redistributable here, so each is replaced by a
// seeded synthetic recipe matched to the published shape: vertex count,
// average degree, label count, and the skewed degree / label distributions
// that drive the paper's observations (high-degree vertices dominating
// work, label frequency shaping FSM costs).
//
// Graphs are grown with a Holme-Kim style process — preferential
// attachment plus probabilistic triangle closure — which yields the
// power-law degrees and high clustering of social/co-occurrence networks,
// i.e. plenty of the triangles, cliques and stars graph mining feeds on.
// A Scale knob shrinks recipes proportionally for laptop and CI runs; see
// DESIGN.md for why shape (not absolute seconds) is the reproduction
// target.
package dataset

import (
	"fmt"
	"math/rand"
	"strings"

	"morphing/internal/graph"
)

// Recipe describes a synthetic data graph. Generate is deterministic in
// all fields including Seed.
type Recipe struct {
	Name      string
	Vertices  int
	AvgDegree float64
	Labels    int     // 0 = unlabeled
	LabelSkew float64 // Zipf exponent for label frequencies (>1)
	TriangleP float64 // probability of closing a triangle per attachment
	Seed      int64
}

// Full-size recipes matched to Figure 11b. Generating them at scale 1.0 is
// possible but slow and memory hungry (Friendster: 1.8B edges); the bench
// harness scales them down by default.

// MiCo mimics the MiCo co-authorship graph: 100K vertices, 1M edges,
// 29 labels.
func MiCo() Recipe {
	return Recipe{Name: "MI", Vertices: 100_000, AvgDegree: 22, Labels: 29, LabelSkew: 1.4, TriangleP: 0.6, Seed: 0xA11CE}
}

// MAG mimics the MAG citation subgraph: 726K vertices, 5.4M edges,
// 349 labels.
func MAG() Recipe {
	return Recipe{Name: "MG", Vertices: 726_000, AvgDegree: 14, Labels: 349, LabelSkew: 1.3, TriangleP: 0.35, Seed: 0xB0B}
}

// Products mimics the OGB Products co-purchasing network: 2.4M vertices,
// 61M edges, 47 labels.
func Products() Recipe {
	return Recipe{Name: "PR", Vertices: 2_400_000, AvgDegree: 52, Labels: 47, LabelSkew: 1.2, TriangleP: 0.5, Seed: 0xCAFE}
}

// Orkut mimics the Orkut social network: 3M vertices, 117M edges,
// unlabeled.
func Orkut() Recipe {
	return Recipe{Name: "OK", Vertices: 3_000_000, AvgDegree: 76, TriangleP: 0.55, Seed: 0xD00D}
}

// Friendster mimics the Friendster social network: 65M vertices, 1.8B
// edges, unlabeled.
func Friendster() Recipe {
	return Recipe{Name: "FR", Vertices: 65_000_000, AvgDegree: 55, TriangleP: 0.45, Seed: 0xFEED}
}

// All returns the five evaluation recipes in the paper's order.
func All() []Recipe {
	return []Recipe{MiCo(), MAG(), Products(), Orkut(), Friendster()}
}

// ByName resolves a recipe by its two-letter figure name (MI, MG, PR, OK,
// FR), case-insensitively.
func ByName(name string) (Recipe, error) {
	for _, r := range All() {
		if strings.EqualFold(r.Name, name) {
			return r, nil
		}
	}
	return Recipe{}, fmt.Errorf("dataset: unknown graph %q (want MI, MG, PR, OK or FR)", name)
}

// Scaled returns a copy with the vertex count multiplied by f (minimum 64
// vertices); average degree, labels and skew are preserved so the scaled
// graph keeps the full-size shape.
func (r Recipe) Scaled(f float64) Recipe {
	s := r
	s.Vertices = int(float64(r.Vertices) * f)
	if s.Vertices < 64 {
		s.Vertices = 64
	}
	// Degree cannot exceed the scaled vertex count.
	if s.AvgDegree > float64(s.Vertices)/4 {
		s.AvgDegree = float64(s.Vertices) / 4
	}
	return s
}

// Generate materializes the recipe.
func (r Recipe) Generate() (*graph.Graph, error) {
	if r.Vertices < 2 {
		return nil, fmt.Errorf("dataset: recipe %q needs at least 2 vertices", r.Name)
	}
	if r.AvgDegree <= 0 {
		return nil, fmt.Errorf("dataset: recipe %q needs positive average degree", r.Name)
	}
	rng := rand.New(rand.NewSource(r.Seed))
	m := int(r.AvgDegree / 2)
	if m < 1 {
		m = 1
	}
	n := r.Vertices
	b := graph.NewBuilder(n)

	// Holme-Kim growth. targets[] is a degree-proportional sampling pool
	// (every edge endpoint is appended, so uniform draws are
	// preferential); adj[] tracks adjacency incrementally so triangle
	// closure can attach to a true random neighbor of the previous
	// target, producing the high clustering of co-authorship and social
	// graphs.
	targets := make([]uint32, 0, 2*n*m)
	adj := make([][]uint32, n)
	addEdge := func(u, v uint32) {
		b.AddEdge(u, v)
		targets = append(targets, u, v)
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	// Seed clique over the first m+1 vertices.
	seedN := m + 1
	if seedN > n {
		seedN = n
	}
	for u := 0; u < seedN; u++ {
		for v := u + 1; v < seedN; v++ {
			addEdge(uint32(u), uint32(v))
		}
	}
	chosen := make(map[uint32]struct{}, m)
	for v := seedN; v < n; v++ {
		vv := uint32(v)
		for k := range chosen {
			delete(chosen, k)
		}
		// Each new vertex joins around a preferentially chosen anchor;
		// with probability TriangleP each further edge lands inside the
		// anchor's neighborhood (the community-insertion behaviour of
		// co-authorship and social graphs, where neighborhoods are
		// already interconnected), otherwise it jumps to a fresh
		// preferential anchor.
		anchor := targets[rng.Intn(len(targets))]
		for e := 0; e < m; e++ {
			var t uint32
			if e > 0 && rng.Float64() < r.TriangleP && len(adj[anchor]) > 0 {
				t = adj[anchor][rng.Intn(len(adj[anchor]))]
			} else {
				t = targets[rng.Intn(len(targets))]
				anchor = t
			}
			if t == vv {
				continue
			}
			if _, dup := chosen[t]; dup {
				continue
			}
			chosen[t] = struct{}{}
			addEdge(vv, t)
		}
	}

	if r.Labels > 0 {
		labels := make([]int32, n)
		skew := r.LabelSkew
		if skew <= 1 {
			skew = 1.1
		}
		z := rand.NewZipf(rng, skew, 1, uint64(r.Labels-1))
		for i := range labels {
			labels[i] = int32(z.Uint64())
		}
		b.SetLabels(labels)
	}
	return b.Build()
}

// ErdosRenyi generates a G(n, p)-style random graph with the given
// expected average degree, optionally labeled uniformly over numLabels.
// Used by tests and the cost-model calibration experiments.
func ErdosRenyi(n int, avgDegree float64, numLabels int, seed int64) (*graph.Graph, error) {
	return Hubbed(n, avgDegree, 0, numLabels, seed)
}

// Hubbed is ErdosRenyi with the last hubs vertices each made adjacent to
// seven in eight of all the others: at n >= 76 they clear the 64-degree
// floor of graph.DefaultHubThreshold while everything else stays sparse,
// the smallest shape on which a plain graph serves hub-bitset rows. Used
// by tests.
func Hubbed(n int, avgDegree float64, hubs, numLabels int, seed int64) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("dataset: ErdosRenyi needs at least 2 vertices")
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	// Sample each vertex pair with probability p = avg/(n-1); quadratic,
	// intended for the small graphs tests and calibration use.
	p := avgDegree / float64(n-1)
	if p >= 1 {
		p = 0.999
	}
	if p > 0 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					b.AddEdge(uint32(u), uint32(v))
				}
			}
		}
	}
	for h := n - hubs; h < n; h++ {
		for u := 0; u < n; u++ {
			if u != h && (u+h)%8 != 0 {
				b.AddEdge(uint32(h), uint32(u)) // Build collapses the duplicates
			}
		}
	}
	if numLabels > 0 {
		labels := make([]int32, n)
		for i := range labels {
			labels[i] = int32(rng.Intn(numLabels))
		}
		b.SetLabels(labels)
	}
	return b.Build()
}
