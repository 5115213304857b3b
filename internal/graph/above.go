package graph

import (
	"slices"
	"sync"
)

// Upper-row offsets: for every vertex v, the index in Neighbors(v) of v's
// first neighbour above v, so Neighbors(v)[AboveRows()[v]:] is the row's
// upper half. A symmetry-breaking window whose low end is one past the
// vertex bound at the level above (v_{d-1} < v_d) clips that vertex's row
// exactly there, once per count of the level below; the executor reads the
// cut from this array instead of searching the row for it. 4 B per vertex,
// built by the first AboveRows call as HubBits builds the hub index. The
// decoding tiers carry none and their executors search.

// aboveMemo is the once-per-graph slot of the offsets.
type aboveMemo struct {
	once sync.Once
	ix   []uint32
}

// AboveRows returns the upper-row offsets: AboveRows()[v] is the number of
// v's neighbours below v. The slice has one entry per vertex, aliases
// immutable storage and must not be modified. The first call builds it;
// concurrent first calls wait for the one build.
func (g *Graph) AboveRows() []uint32 {
	g.above.once.Do(func() {
		above := make([]uint32, g.NumVertices())
		for v := range above {
			i, _ := slices.BinarySearch(g.Neighbors(uint32(v)), uint32(v)+1)
			above[v] = uint32(i)
		}
		g.above.ix = above
	})
	return g.above.ix
}
