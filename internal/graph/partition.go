package graph

import "fmt"

// Partition splits a into k balanced vertex partitions and returns the
// subgraph induced by each partition, dropping cross-partition edges — the
// exact workload-reduction step of §7.4, which the paper performed with
// METIS. We substitute a BFS-grown greedy partitioner: parts are grown
// breadth-first from spread-out seeds so they stay locally connected and
// the edge cut stays modest; §7.4 only relies on the drop, not on METIS's
// cut optimality (see DESIGN.md).
//
// a may be any storage tier; partitions come back as plain in-RAM
// subgraphs regardless: each shard is a fraction of the graph (that is the
// point of shard-per-partition execution), so materializing it plain keeps
// the mining hot path on the zero-decode representation. BFS growth
// consumes rows one at a time through one reused buffer; seed and visit
// order depend only on row content, making partitions identical across
// tiers for the same logical graph.
func Partition(a Adjacency, k int) ([]*Graph, error) {
	parts, err := PartitionMembers(a, k)
	if err != nil {
		return nil, err
	}
	g := a.View()
	out := make([]*Graph, 0, k)
	for _, members := range parts {
		sub, err := SubgraphOf(g, members)
		if err != nil {
			return nil, err
		}
		out = append(out, sub)
	}
	return out, nil
}

// PartitionMembers runs the BFS-grown assignment of Partition but
// returns only the member lists, letting callers materialize one shard
// at a time (shard-per-partition execution keeps peak memory at the
// source tier plus a single shard, not all k at once). Empty partitions
// are omitted.
func PartitionMembers(a Adjacency, k int) ([][]uint32, error) {
	g := a.View()
	n := g.NumVertices()
	if k < 1 {
		return nil, fmt.Errorf("graph: partition count %d < 1", k)
	}
	if k > n {
		return nil, fmt.Errorf("graph: partition count %d exceeds %d vertices", k, n)
	}
	target := (n + k - 1) / k
	assigned := make([]int32, n)
	for i := range assigned {
		assigned[i] = -1
	}
	parts := make([][]uint32, k)
	next := 0 // scan cursor for unassigned seeds
	var row, buf []uint32
	for pi := 0; pi < k; pi++ {
		// Seed: first unassigned vertex.
		for next < n && assigned[next] != -1 {
			next++
		}
		if next == n {
			break
		}
		queue := []uint32{uint32(next)}
		assigned[next] = int32(pi)
		for len(queue) > 0 && len(parts[pi]) < target {
			v := queue[0]
			queue = queue[1:]
			parts[pi] = append(parts[pi], v)
			row, buf = g.Row(v, buf)
			for _, u := range row {
				if assigned[u] == -1 {
					assigned[u] = int32(pi)
					queue = append(queue, u)
				}
			}
		}
		// Vertices still queued when the part filled up go back to the pool.
		for _, v := range queue {
			assigned[v] = -1
		}
	}
	// Round-robin leftovers (isolated or spilled vertices).
	pi := 0
	for v := 0; v < n; v++ {
		if assigned[v] == -1 {
			for len(parts[pi]) >= target && pi < k-1 {
				pi++
			}
			parts[pi] = append(parts[pi], uint32(v))
			assigned[v] = int32(pi)
		}
	}
	out := make([][]uint32, 0, k)
	for _, members := range parts {
		if len(members) == 0 {
			continue
		}
		out = append(out, members)
	}
	return out, nil
}
