package aggr

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// tableModel is the reference the bitmap table replaced: one hash set per
// column.
type tableModel []map[uint32]struct{}

func newModel(width int) tableModel {
	m := make(tableModel, width)
	for i := range m {
		m[i] = map[uint32]struct{}{}
	}
	return m
}

func (m tableModel) insertAll(match []uint32, perms [][]int) {
	for _, a := range perms {
		for i, ai := range a {
			m[i][match[ai]] = struct{}{}
		}
	}
}

func (m tableModel) merge(o tableModel) {
	for i := range o {
		for v := range o[i] {
			m[i][v] = struct{}{}
		}
	}
}

func (m tableModel) permuted(f []int) tableModel {
	out := newModel(len(f))
	for i, src := range f {
		if src < len(m) {
			for v := range m[src] {
				out[i][v] = struct{}{}
			}
		}
	}
	return out
}

// saturated is Saturate by its definition: every id of column a[i] joins
// column i, for every a, reading the columns as they were before.
func (m tableModel) saturated(perms [][]int) tableModel {
	out := newModel(len(m))
	for _, a := range perms {
		for i, ai := range a {
			for v := range m[ai] {
				out[i][v] = struct{}{}
			}
		}
	}
	return out
}

func (m tableModel) column(i int) []uint32 {
	out := make([]uint32, 0, len(m[i]))
	for v := range m[i] {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

func (m tableModel) support() int {
	min := len(m[0])
	for _, c := range m {
		if len(c) < min {
			min = len(c)
		}
	}
	return min
}

func (m tableModel) equal(o tableModel) bool {
	if len(m) != len(o) {
		return false
	}
	for i := range m {
		if len(m[i]) != len(o[i]) {
			return false
		}
		for v := range m[i] {
			if _, ok := o[i][v]; !ok {
				return false
			}
		}
	}
	return true
}

// randomID draws from the three regimes a column has to be honest in:
// a dense cluster (small graphs, one chunk going from array to bitmap and
// back as its span grows), ids scattered over a 2^27 span (many one-id
// chunks), and the top of the id space.
func randomID(r *rand.Rand) uint32 {
	switch r.Intn(4) {
	case 0:
		return uint32(r.Intn(300))
	case 1:
		return 1<<16 - 40 + uint32(r.Intn(4000)) // straddles a chunk border
	case 2:
		return uint32(r.Intn(1 << 27))
	default:
		return math.MaxUint32 - uint32(r.Intn(70))
	}
}

func randomPerms(r *rand.Rand, width int) [][]int {
	perms := make([][]int, 1+r.Intn(4))
	for i := range perms {
		perms[i] = r.Perm(width)
	}
	return perms
}

// checkForm asserts the representation invariant of every chunk: keys
// ascend, no chunk is empty, and with n ids up to m the chunk is the
// bitmap of exactly m/64+1 words iff the list of n would be as long.
func checkForm(t *testing.T, tbl *Table) {
	t.Helper()
	for i, col := range tbl.cols {
		for k, c := range col {
			if k > 0 && col[k-1].key >= c.key {
				t.Fatalf("column %d: chunk keys not ascending at %d", i, k)
			}
			ids := appendIDs([]uint64(nil), &c, 0)
			if len(ids) == 0 || !slices.IsSorted(ids) || ids[len(ids)-1] > math.MaxUint16 {
				t.Fatalf("column %d chunk %#x: ids %v", i, c.key, ids)
			}
			words := int(ids[len(ids)-1]>>6) + 1
			if want := len(ids) >= words; c.bitmap != want || (want && len(c.data) != words) {
				t.Fatalf("column %d chunk %#x: %d ids up to word %d held as bitmap=%v of %d words",
					i, c.key, len(ids), words-1, c.bitmap, len(c.data))
			}
		}
	}
}

// TestTableMatchesSetModel drives tables and the hash-set model with the
// same random operation sequences and compares them after every step.
func TestTableMatchesSetModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		width := 1 + r.Intn(5)
		const slots = 3
		tables := make([]*Table, slots)
		models := make([]tableModel, slots)
		for i := range tables {
			tables[i], models[i] = NewTable(width), newModel(width)
		}
		identity := [][]int{make([]int, width)}
		for i := range identity[0] {
			identity[0][i] = i
		}
		for step := 0; step < 600; step++ {
			a, b := r.Intn(slots), r.Intn(slots)
			match := make([]uint32, width)
			for i := range match {
				match[i] = randomID(r)
			}
			var op string
			switch r.Intn(12) {
			case 0, 1, 2, 3, 4:
				op = "Insert"
				// Repeat the previous prefix half the time, as a
				// depth-first match stream does.
				if last := tables[a].last; len(last) == width && r.Intn(2) == 0 {
					copy(match, last[:r.Intn(width)])
				}
				tables[a].Insert(match)
				models[a].insertAll(match, identity)
			case 5, 6:
				op = "InsertAll"
				perms := randomPerms(r, width)
				tables[a].InsertAll(match, perms)
				models[a].insertAll(match, perms)
			case 7, 8:
				op = "Merge"
				tables[a].Merge(tables[b])
				models[a].merge(models[b])
			case 9:
				op = "Permuted"
				f := r.Perm(width)
				tables[a], models[a] = tables[b].Permuted(f), models[b].permuted(f)
			case 10:
				op = "Clone"
				tables[a], models[a] = tables[b].Clone(), models[b].permuted(identity[0])
			default:
				op = "Saturate"
				perms := randomPerms(r, width)
				tables[a].Saturate(perms)
				models[a] = models[a].saturated(perms)
			}
			// The touched table is compared after every step, all of them
			// (a Clone or Permuted that shared storage would show in
			// another slot) every 20th.
			for s := range tables {
				if s != a && step%20 != 0 {
					continue
				}
				for i := 0; i < width; i++ {
					if got, want := tables[s].Column(i), models[s].column(i); !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d (%s): table %d column %d = %v, model %v", seed, step, op, s, i, got, want)
					}
				}
				checkForm(t, tables[s])
				if got, want := tables[s].Support(), models[s].support(); got != want {
					t.Fatalf("seed %d step %d (%s): table %d support %d, model %d", seed, step, op, s, got, want)
				}
				for o := range tables {
					if got, want := tables[s].Equal(tables[o]), models[s].equal(models[o]); got != want {
						t.Fatalf("seed %d step %d (%s): Equal(%d, %d) = %v, model %v", seed, step, op, s, o, got, want)
					}
				}
			}
		}
	}
}

// randomTail draws an ascending, duplicate-free tail from randomID's
// regimes: short ones, and a long one now and then that fills a chunk's
// list past its bitmap in one call.
func randomTail(r *rand.Rand) []uint32 {
	n := 1 + r.Intn(8)
	if r.Intn(4) == 0 {
		n = 50 + r.Intn(400)
	}
	tail := make([]uint32, n)
	for i := range tail {
		tail[i] = randomID(r)
	}
	slices.Sort(tail)
	return slices.Compact(tail)
}

// chunkForms maps each chunk key of a column to whether it is a bitmap.
func chunkForms(c column) map[uint16]bool {
	forms := make(map[uint16]bool, len(c))
	for _, ch := range c {
		forms[ch.key] = ch.bitmap
	}
	return forms
}

// TestInsertTailIsInsertInBulk: InsertTail(m, pos, tail), interleaved
// with Insert on the same table, records exactly what Insert records for
// m with m[pos] set to each id of tail in turn. The m handed to InsertTail
// keeps a stale id at pos — the previous call's, as a streaming pass's
// match slot does — which the next calls often repeat, and the tables are
// fresh every 50 steps, so the first call fills the last cache. The tails
// span three chunks or more and turn chunks from lists into bitmaps and
// back, which the test checks happened.
func TestInsertTailIsInsertInBulk(t *testing.T) {
	var spans3, toBitmap, toList bool
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		width := 1 + r.Intn(5)
		var bulk, each *Table
		prev := make([]uint32, width)
		for step := 0; step < 400; step++ {
			if step%50 == 0 {
				bulk, each = NewTable(width), NewTable(width)
			}
			m := make([]uint32, width)
			for i := range m {
				if m[i] = prev[i]; r.Intn(2) == 0 {
					m[i] = randomID(r)
				}
			}
			op := "Insert"
			if r.Intn(3) == 0 {
				bulk.Insert(m)
				each.Insert(m)
			} else {
				op = "InsertTail"
				pos, tail := r.Intn(width), randomTail(r)
				before := chunkForms(bulk.cols[pos])
				bulk.InsertTail(m, pos, tail)
				stale := m[pos]
				for _, v := range tail {
					m[pos] = v
					each.Insert(m)
				}
				m[pos] = stale
				spans3 = spans3 || tail[len(tail)-1]>>16-tail[0]>>16 >= 2
				for key, bitmap := range chunkForms(bulk.cols[pos]) {
					if was, ok := before[key]; ok && was != bitmap {
						toBitmap, toList = toBitmap || bitmap, toList || !bitmap
					}
				}
			}
			copy(prev, m)
			if !bulk.Equal(each) {
				t.Fatalf("seed %d step %d (%s): InsertTail table %v, one Insert per match %v", seed, step, op, bulk, each)
			}
			checkForm(t, bulk)
		}
	}
	if !spans3 || !toBitmap || !toList {
		t.Fatalf("coverage: a tail over 3 chunks %v, list to bitmap %v, bitmap to list %v", spans3, toBitmap, toList)
	}
}

// TestSaturateEqualsInsertAll is the identity the MNI sink rests on:
// inserting representatives and saturating once equals inserting every
// match under every automorphism.
func TestSaturateEqualsInsertAll(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for round := 0; round < 50; round++ {
		width := 2 + r.Intn(4)
		// A permutation group: the cyclic group generated by one
		// permutation.
		gen := r.Perm(width)
		auts := [][]int{gen}
		for {
			last := auts[len(auts)-1]
			next := make([]int, width)
			for i := range next {
				next[i] = gen[last[i]]
			}
			if slices.Equal(next, gen) {
				break
			}
			auts = append(auts, next)
		}
		reps, all := NewTable(width), NewTable(width)
		for n := r.Intn(200); n > 0; n-- {
			m := make([]uint32, width)
			for i := range m {
				m[i] = randomID(r)
			}
			reps.Insert(m)
			all.InsertAll(m, auts)
		}
		reps.Saturate(auts)
		if !reps.Equal(all) {
			t.Fatalf("round %d (%d automorphisms): Insert+Saturate %v != InsertAll %v", round, len(auts), reps, all)
		}
	}
}

// TestEqualIgnoresHistory: a chunk's form (array or bitmap) depends on its
// ids alone, so however a set was built the tables are Equal.
func TestEqualIgnoresHistory(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 4, 5, 6, 300, 5000} {
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = randomID(r)
		}
		build := func(order []uint32) *Table {
			tbl := NewTable(1)
			for _, v := range order {
				tbl.Insert([]uint32{v})
			}
			return tbl
		}
		want := build(ids)
		asc := slices.Clone(ids)
		slices.Sort(asc)
		desc := slices.Clone(asc)
		slices.Reverse(desc)
		merged := build(asc[:n/2])
		merged.Merge(build(asc[n/2:]))
		flipped := build(asc[n/2:])
		flipped.Merge(build(asc[:n/2]))
		for name, got := range map[string]*Table{
			"ascending": build(asc), "descending": build(desc),
			"merged": merged, "merged the other way": flipped,
			"cloned": want.Clone(), "permuted": want.Permuted([]int{0}),
		} {
			if !got.Equal(want) || !want.Equal(got) {
				t.Errorf("%d ids, %s: not Equal to the same set inserted in drawn order", n, name)
			}
		}
	}
}

// heapBytes is what the table's columns occupy: every slice at its
// capacity. (Allocator rounding is already in the capacities, which
// append and make round up to a size class.)
func (t *Table) heapBytes() int {
	n := cap(t.cols) * int(unsafe.Sizeof(column{}))
	for _, col := range t.cols {
		n += cap(col) * int(unsafe.Sizeof(chunk{}))
		for _, c := range col {
			n += cap(c.data) * 8
		}
	}
	return n
}

// TestColumnMemoryBound holds the representation to its claim: a sparse
// column costs in proportion to its ids, not its span, and a dense one no
// more than its span in bits.
func TestColumnMemoryBound(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	sparse := NewTable(1)
	for i := 0; i < 1000; i++ {
		sparse.Insert([]uint32{uint32(r.Intn(1 << 27))})
	}
	if n := sparse.Support(); n < 990 || n > 1000 {
		t.Fatalf("sparse column holds %d ids", n)
	}
	if bytes := sparse.heapBytes(); bytes >= 64<<10 {
		t.Errorf("1000 ids over a 2^27 span take %d bytes, want < 64 KiB", bytes)
	}

	const span = 1 << 20
	dense := NewTable(1)
	for _, v := range r.Perm(span) {
		dense.Insert([]uint32{uint32(v)})
	}
	if n := dense.Support(); n != span {
		t.Fatalf("dense column holds %d ids, want %d", n, span)
	}
	if bytes, limit := dense.heapBytes(), span/8+4<<10; bytes > limit {
		t.Errorf("a full 2^20 span takes %d bytes, want <= span/8 + 4 KiB of headers = %d", bytes, limit)
	}
}

var benchSupport int

// BenchmarkMNIInsert is the per-match cost of the FSM UDF: a 4-column
// match into one shard, depth-first order (the last id changes on every
// match, the one before it every 16th, ...).
func BenchmarkMNIInsert(b *testing.B) {
	for _, bc := range []struct {
		name string
		span int
	}{{"dense300", 300}, {"sparse2e24", 1 << 24}} {
		b.Run(bc.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			matches := make([][4]uint32, 1<<16)
			for i := range matches {
				if i > 0 {
					matches[i] = matches[i-1]
				}
				for c := 3; c >= 0; c-- {
					matches[i][c] = uint32(r.Intn(bc.span))
					if r.Intn(16) != 0 {
						break
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			tbl := NewTable(4)
			for i := 0; i < b.N; i++ {
				tbl.Insert(matches[i&(len(matches)-1)][:])
			}
			benchSupport = tbl.Support()
		})
	}
}
