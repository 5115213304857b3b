package canon

import (
	"sync"

	"morphing/internal/pattern"
)

// Morphing workloads call the isomorphism machinery with the same handful
// of patterns thousands of times (cost functions per S-DAG node, plan
// building per partition, conversion maps per query), so the expensive
// entry points are memoized process-wide. Keys are the exact pattern
// encoding — vertex numbering included — because automorphisms and
// isomorphisms are numbering-sensitive.
//
// Cached slices are shared: callers must treat returned permutations as
// read-only (all in-tree callers do).
var (
	formMemo Memo[string, form]    // exactKey(p) -> canonical labeling and ID
	autMemo  Memo[string, [][]int] // exactKey(p) -> Automorphisms(p)
	isoMemo  Memo[string, [][]int] // exactKey(p)|exactKey(q) -> Isomorphisms(p, q)
)

// MemoCap bounds the entries of one Memo, so that a resident process fed
// ever new labeled patterns does not grow without limit. The largest
// working set among the repo's workloads — one 3-edge FSM query over 29
// labels: about 2,200 canonical labelings and 1,200 automorphism groups —
// fits in a generation (half the capacity) several times over.
const MemoCap = 1 << 14

// Memo is a bounded, concurrency-safe map; its zero value is ready to use.
// It keeps two generations: new entries go to cur, a hit in old moves the
// entry to cur, and when cur holds half the capacity it becomes old and the
// previous old generation is dropped. An entry therefore survives as long
// as it is used once per MemoCap/2 insertions of other keys — LRU to within
// a generation, at the cost of one extra map lookup. The process-wide plan
// memo (plan.BuildAut) is one of these too.
type Memo[K comparable, V any] struct {
	mu       sync.Mutex
	cur, old map[K]V
}

// Get returns the value stored under key, if it is still held.
func (m *Memo[K, V]) Get(key K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.cur[key]
	if !ok {
		if v, ok = m.old[key]; ok {
			m.putLocked(key, v)
		}
	}
	return v, ok
}

// Put stores v under key.
func (m *Memo[K, V]) Put(key K, v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.putLocked(key, v)
}

func (m *Memo[K, V]) putLocked(key K, v V) {
	if m.cur == nil || len(m.cur) >= MemoCap/2 {
		m.cur, m.old = make(map[K]V), m.cur
	}
	m.cur[key] = v
}

// Len returns the number of entries held, never more than MemoCap.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cur) + len(m.old)
}

// Key returns a compact numbering-sensitive identity string for p,
// suitable as a memoization key for pattern-pair computations (the
// induced flag is excluded; cache it separately if it matters).
func Key(p *pattern.Pattern) string { return exactKey(p) }

// exactKey encodes a pattern's full identity: vertex count, adjacency
// masks, labels. The induced flag is irrelevant to every cached function.
func exactKey(p *pattern.Pattern) string {
	n := p.N()
	buf := make([]byte, 0, 1+8*n)
	buf = append(buf, byte(n))
	for i := 0; i < n; i++ {
		m := p.NeighborMask(i)
		a := p.AntiMask(i)
		l := p.Label(i)
		buf = append(buf, byte(m), byte(m>>8), byte(a), byte(a>>8),
			byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return string(buf)
}
