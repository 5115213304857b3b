package core

import (
	"fmt"
	"math/rand"
	"slices"

	"morphing/internal/pattern"
)

// EnumerateAssignments samples up to limit distinct alternative sets for
// the queries — the space the Fig. 15e experiment explores — and returns
// each as the Selection Select would return for it. A set mines every
// structure of the whole DAG d (Nodes) in one variant, so every up-set is
// covered and Convert turns any of them into the query counts. Cliques,
// whose variants coincide, are mined edge-induced; every other structure's
// variant varies. The all-vertex-induced set (for a motif query set, the
// queries themselves) comes first and the all-edge-induced one second; the
// rest are drawn deterministically in seed.
func EnumerateAssignments(d *SDAG, queries []*pattern.Pattern, limit int, seed int64) ([]*Selection, error) {
	qs := make([]Query, len(queries))
	for i, q := range queries {
		if qs[i].Node = d.Node(q); qs[i].Node == nil {
			return nil, fmt.Errorf("core: query %d (%v) missing from S-DAG", i, q)
		}
		qs[i].Pattern = q
	}
	nodes := d.Nodes()
	var free []int // the structures that are not cliques
	for i, n := range nodes {
		if !n.Pattern.IsClique() {
			free = append(free, i)
		}
	}
	limit = min(max(limit, 2), 1<<min(len(free), 62))

	variants := make([]byte, len(nodes)) // per node: a pattern.Induced, cliques edge-induced
	seen := map[string]bool{}
	var out []*Selection
	r := rand.New(rand.NewSource(seed))
	for draw := 0; len(out) < limit; draw++ {
		for _, i := range free {
			switch draw {
			case 0:
				variants[i] = byte(pattern.VertexInduced)
			case 1:
				variants[i] = byte(pattern.EdgeInduced)
			default:
				variants[i] = byte(r.Intn(2))
			}
		}
		if seen[string(variants)] {
			continue
		}
		seen[string(variants)] = true
		ms := make([]member, len(nodes))
		for i, n := range nodes {
			ms[i] = member{node: n, key: pairKey{n.ID, pattern.Induced(variants[i])}}
		}
		sel := &Selection{SDAG: d, Policy: PolicyAny, Queries: slices.Clone(qs)}
		sel.setMine(ms)
		out = append(out, sel)
	}
	return out, nil
}
