package canon

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"

	"morphing/internal/pattern"
)

// pinnedForms records, from the commit before canonical labelings were
// memoized and refine stopped using fmt, every connected graph on 2-4
// numbered vertices (edge i of mask is the i-th pair in lexicographic
// order) under all 3^n labelings over {0,1,2}: an FNV-1a digest over the
// (canonical string, StructureID) of the labelings in counting order, and
// labeling number 7 in the clear. Pattern IDs, cache digests and the
// benchmark's golden keys are made of these values, so they may not move.
var pinnedForms = []struct {
	n        int
	mask     int
	digest   uint64
	sample   string
	sampleID uint64
}{
	{2, 0x1, 0x0d90efb0525b5d5b, "n=2;e=0-1;l=1,2", 0xe3dc77e046e75b37},
	{3, 0x3, 0xe74ab02a14e9161a, "n=3;e=0-1,1-2;l=0,1,2", 0x3d1ab809b1eee150},
	{3, 0x5, 0x9db455fec0d54fc2, "n=3;e=0-2,1-2;l=0,1,2", 0xadde33c98b8a9b46},
	{3, 0x6, 0xe72bd330ac9bfad6, "n=3;e=0-1,0-2;l=0,1,2", 0x0d5b3112e7c1a0f3},
	{3, 0x7, 0x8b9e9083ec1481c8, "n=3;e=0-1,0-2,1-2;l=0,1,2", 0x5818928972c0eff5},
	{4, 0x7, 0xba34db9f884b24e2, "n=4;e=0-2,1-2,2-3;l=0,0,1,2", 0x45cdaf5124059eed},
	{4, 0xd, 0x07579d3cf26664dc, "n=4;e=0-2,1-3,2-3;l=0,0,1,2", 0x3e132460f18a23c1},
	{4, 0xe, 0x283cfe24b9f5a520, "n=4;e=0-2,1-2,1-3;l=0,0,1,2", 0x2137d962e41d482b},
	{4, 0xf, 0x578ced45c6a6c08a, "n=4;e=0-2,1-2,1-3,2-3;l=0,0,1,2", 0x8bbd1675ce1eaa27},
	{4, 0x13, 0x77f54a9d04d817b4, "n=4;e=0-2,1-3,2-3;l=0,0,1,2", 0x3e132460f18a23c1},
	{4, 0x16, 0x9171d357b559a814, "n=4;e=0-2,1-2,1-3;l=0,0,1,2", 0x2137d962e41d482b},
	{4, 0x17, 0x23637bbe25449336, "n=4;e=0-2,1-2,1-3,2-3;l=0,0,1,2", 0x8bbd1675ce1eaa27},
	{4, 0x19, 0xc4267d013daddbba, "n=4;e=0-3,1-3,2-3;l=0,0,1,2", 0xa00cadcfb0830fdd},
	{4, 0x1a, 0xdf5e47285a26d7d4, "n=4;e=0-3,1-2,1-3;l=0,0,1,2", 0x9355039bdfd65a37},
	{4, 0x1b, 0xba60fe5f0081a2da, "n=4;e=0-3,1-2,1-3,2-3;l=0,0,1,2", 0x28cfc688f5d4f83b},
	{4, 0x1c, 0xeff4092a4d260e50, "n=4;e=0-3,1-2,1-3;l=0,0,1,2", 0x9355039bdfd65a37},
	{4, 0x1d, 0x5e0b4bc60867743e, "n=4;e=0-3,1-2,1-3,2-3;l=0,0,1,2", 0x28cfc688f5d4f83b},
	{4, 0x1e, 0x117e07ff850c4a56, "n=4;e=0-2,0-3,1-2,1-3;l=0,0,1,2", 0x6cdb507e0b307f82},
	{4, 0x1f, 0x92b92d9599b69acd, "n=4;e=0-2,0-3,1-2,1-3,2-3;l=0,0,1,2", 0xfa2c4bb378a96e8e},
	{4, 0x23, 0x7e426833699a5e68, "n=4;e=0-1,1-2,2-3;l=0,0,1,2", 0x7ad7b5c1c5e4ca7b},
	{4, 0x25, 0xc7c8146ae8957004, "n=4;e=0-1,1-2,2-3;l=0,0,1,2", 0x7ad7b5c1c5e4ca7b},
	{4, 0x27, 0xae6c902394335a6e, "n=4;e=0-1,0-2,1-2,2-3;l=0,0,1,2", 0xc5d0513a0e28e36e},
	{4, 0x29, 0x02c61d24d7e93b20, "n=4;e=0-1,1-3,2-3;l=0,0,1,2", 0x9285f2d720d53397},
	{4, 0x2a, 0xc2eb9fd54e150e4e, "n=4;e=0-1,1-2,1-3;l=0,0,1,2", 0xd22cfbf7b1b99c3d},
	{4, 0x2b, 0xe3e3d99847d2de62, "n=4;e=0-1,1-2,1-3,2-3;l=0,0,1,2", 0x44dc00c24440ad31},
	{4, 0x2c, 0xe0c36c57f8d42650, "n=4;e=0-1,0-2,1-3;l=0,0,1,2", 0xa5e8b0293f4f9d8e},
	{4, 0x2d, 0x5fc508609c1f2b5a, "n=4;e=0-1,0-2,1-3,2-3;l=0,0,1,2", 0x1897b4f3d1d6ae82},
	{4, 0x2e, 0xd269d2d19fc3a6b2, "n=4;e=0-1,0-2,1-2,1-3;l=0,0,1,2", 0x254f5f27a2836428},
	{4, 0x2f, 0x2596d41117161f29, "n=4;e=0-1,0-2,1-2,1-3,2-3;l=0,0,1,2", 0x8fd49c3a8c84c624},
	{4, 0x31, 0x1bf500c0267ec41c, "n=4;e=0-1,1-3,2-3;l=0,0,1,2", 0x9285f2d720d53397},
	{4, 0x32, 0xad264358e93a67d8, "n=4;e=0-1,0-2,1-3;l=0,0,1,2", 0xa5e8b0293f4f9d8e},
	{4, 0x33, 0xdbd8efa26aceedf2, "n=4;e=0-1,0-2,1-3,2-3;l=0,0,1,2", 0x1897b4f3d1d6ae82},
	{4, 0x34, 0x86a83d09cbd3e086, "n=4;e=0-1,1-2,1-3;l=0,0,1,2", 0xd22cfbf7b1b99c3d},
	{4, 0x35, 0x34408f97158c2fde, "n=4;e=0-1,1-2,1-3,2-3;l=0,0,1,2", 0x44dc00c24440ad31},
	{4, 0x36, 0x0094143ab6e6b55e, "n=4;e=0-1,0-2,1-2,1-3;l=0,0,1,2", 0x254f5f27a2836428},
	{4, 0x37, 0x6057d6996bfdf389, "n=4;e=0-1,0-2,1-2,1-3,2-3;l=0,0,1,2", 0x8fd49c3a8c84c624},
	{4, 0x39, 0x43f0f077028ca8f6, "n=4;e=0-1,0-3,1-3,2-3;l=0,0,1,2", 0x00f52814cb5ff7fe},
	{4, 0x3a, 0xbe00e93d06ea3772, "n=4;e=0-1,0-3,1-2,1-3;l=0,0,1,2", 0x1dd07312d8ccd394},
	{4, 0x3b, 0x180ea814bb1ff1dd, "n=4;e=0-1,0-3,1-2,1-3,2-3;l=0,0,1,2", 0xb34b35ffeecb7198},
	{4, 0x3c, 0x2f42db9b7585118e, "n=4;e=0-1,0-3,1-2,1-3;l=0,0,1,2", 0x1dd07312d8ccd394},
	{4, 0x3d, 0xa37aeb7c5d4df36d, "n=4;e=0-1,0-3,1-2,1-3,2-3;l=0,0,1,2", 0xb34b35ffeecb7198},
	{4, 0x3e, 0x2e1fb62487eadf45, "n=4;e=0-1,0-2,0-3,1-2,1-3;l=0,0,1,2", 0xaee86454df752fc1},
	{4, 0x3f, 0x680e7942a5eae4af, "n=4;e=0-1,0-2,0-3,1-2,1-3,2-3;l=0,0,1,2", 0x3c395f8a4cee1ecd},
}

func TestCanonicalFormsPinned(t *testing.T) {
	for _, pin := range pinnedForms {
		var edges [][2]int
		bit := 0
		for u := 0; u < pin.n; u++ {
			for v := u + 1; v < pin.n; v++ {
				if pin.mask&(1<<bit) != 0 {
					edges = append(edges, [2]int{u, v})
				}
				bit++
			}
		}
		total := 1
		for i := 0; i < pin.n; i++ {
			total *= 3
		}
		h := fnv.New64a()
		for code := 0; code < total; code++ {
			labels := make([]int32, pin.n)
			for i, c := 0, code; i < pin.n; i, c = i+1, c/3 {
				labels[i] = int32(c % 3)
			}
			p := pattern.MustNew(pin.n, edges, pattern.WithLabels(labels))
			id, str := StructureID(p), Canonicalize(p).String()
			fmt.Fprintf(h, "%s\x00%016x\n", str, id)
			if code == 7 && (str != pin.sample || id != pin.sampleID) {
				t.Errorf("n=%d edges %v labels %v: canonical %q id %#x, pinned %q id %#x",
					pin.n, edges, labels, str, id, pin.sample, pin.sampleID)
			}
			// The form filed under the canonical pattern's own key must
			// be the same one.
			c := Canonicalize(p)
			if got := Canonicalize(c).String(); got != str || StructureID(c) != id {
				t.Errorf("n=%d edges %v labels %v: canonical form %q re-canonicalizes to %q", pin.n, edges, labels, str, got)
			}
		}
		if got := h.Sum64(); got != pin.digest {
			t.Errorf("n=%d mask %#x: digest over %d labelings %#x, pinned %#x", pin.n, pin.mask, total, got, pin.digest)
		}
	}
}

func (m *Memo[K, V]) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cur, m.old = nil, nil
}

// labeledEdge is one of arbitrarily many pairwise non-isomorphic patterns.
func labeledEdge(i int) *pattern.Pattern {
	return pattern.MustNew(2, [][2]int{{0, 1}}, pattern.WithLabels([]int32{int32(i), int32(i + 1)}))
}

// TestMemosStayBounded feeds the caches ten times their capacity of
// distinct patterns, as a resident daemon under ever new labeled queries
// would, from several goroutines at once.
func TestMemosStayBounded(t *testing.T) {
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 10*MemoCap; i += workers {
				p := labeledEdge(i)
				StructureID(p)
				Automorphisms(p)
				Isomorphisms(p, p)
			}
		}(w)
	}
	wg.Wait()
	for name, size := range map[string]int{"form": formMemo.Len(), "automorphism": autMemo.Len(), "isomorphism": isoMemo.Len()} {
		if size > MemoCap || size < MemoCap/2 {
			t.Errorf("%s memo holds %d entries after %d distinct patterns, want within (%d, %d]", name, size, 10*MemoCap, MemoCap/2, MemoCap)
		}
	}
	// Evicted and resident entries alike still answer correctly.
	for _, i := range []int{0, 1, MemoCap, 10*MemoCap - 1} {
		p := labeledEdge(i)
		flipped := pattern.MustNew(2, [][2]int{{0, 1}}, pattern.WithLabels([]int32{int32(i + 1), int32(i)}))
		want := hashForm(permuted(p, canonicalPerm(p)))
		if got := StructureID(p); got != want || StructureID(flipped) != want {
			t.Errorf("pattern %d: StructureID %#x (renumbered %#x), uncached %#x", i, got, StructureID(flipped), want)
		}
		if got, want := Automorphisms(p), mapsInto(p, p, true); !reflect.DeepEqual(got, want) {
			t.Errorf("pattern %d: automorphisms %v, uncached %v", i, got, want)
		}
		if got, want := Isomorphisms(p, flipped), mapsInto(p, flipped, false); !reflect.DeepEqual(got, want) {
			t.Errorf("pattern %d: isomorphisms %v, uncached %v", i, got, want)
		}
	}
}

// TestMemoKeepsWhatIsUsed: an entry touched once per generation survives
// any number of insertions of other keys.
func TestMemoKeepsWhatIsUsed(t *testing.T) {
	var m Memo[string, int]
	m.Put("hot", 1)
	for i := 0; i < 5*MemoCap; i++ {
		m.Put(fmt.Sprint("cold", i), i)
		if i%(MemoCap/2-1) == 0 {
			if _, ok := m.Get("hot"); !ok {
				t.Fatalf("entry used every %d insertions was evicted at insertion %d", MemoCap/2-1, i)
			}
		}
	}
	if _, ok := m.Get("cold0"); ok {
		t.Error("an entry never used again outlived a full capacity of insertions")
	}
}

var benchID uint64

// BenchmarkCanonicalizeLevel canonicalises, cold, what fsm.extend makes of
// one FSM level: every one-edge extension of the 2-edge paths over six
// labels, asked for its StructureID and its canonical form.
func BenchmarkCanonicalizeLevel(b *testing.B) {
	const labels = 6
	var raw []*pattern.Pattern
	for code := 0; code < labels*labels*labels; code++ {
		l := []int32{int32(code % labels), int32(code / labels % labels), int32(code / labels / labels)}
		wedge := [][2]int{{0, 1}, {1, 2}}
		raw = append(raw, pattern.MustNew(3, append(wedge[:2:2], [2]int{0, 2}), pattern.WithLabels(l)))
		for u := 0; u < 3; u++ {
			for nl := int32(0); nl < labels; nl++ {
				raw = append(raw, pattern.MustNew(4, append(wedge[:2:2], [2]int{u, 3}), pattern.WithLabels(append(l[:3:3], nl))))
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		formMemo.reset()
		for _, p := range raw {
			benchID += StructureID(p)
			benchID += uint64(Canonicalize(p).N())
		}
	}
	b.ReportMetric(float64(len(raw)), "patterns/op")
}
