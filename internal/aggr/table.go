package aggr

import (
	"fmt"
	"math/bits"
	"slices"
)

// Table is a minimum node image table: one column per pattern vertex
// holding the set of data vertices bound to it across all matches. The
// MNI support of a pattern is the size of its smallest column.
//
// A column is a compressed bitmap: the ids of each 2^16-aligned range
// live in one chunk, which lists them until the list is as long as a
// bitmap reaching its largest id would be, and is that bitmap from then
// on. A column therefore takes at most 8 bytes per id plus a 32-byte
// header per range touched when its ids are scattered, and at most span/8
// plus those headers when they are dense; an insert moves at most 8 KiB;
// and Merge, Support and Saturate on dense columns are word-wise OR and
// popcount. Which form a chunk has is a function of the ids it holds
// alone, so equal sets have equal representations.
type Table struct {
	cols []column
	// last is the match of the previous Insert (or the last match of the
	// previous InsertTail), every id of which its column holds. Engines
	// emit matches depth-first, so consecutive matches share their prefix
	// and Insert skips those columns.
	last []uint32
}

// NewTable returns an empty table with one column per pattern vertex.
func NewTable(width int) *Table {
	return &Table{cols: make([]column, width)}
}

// Width returns the number of columns (0 for the adaptive zero table).
func (t *Table) Width() int { return len(t.cols) }

// Insert records one match: m[i] joins column i.
func (t *Table) Insert(m []uint32) {
	if len(m) != len(t.last) {
		t.ensure(len(m))
		for i, v := range m {
			t.cols[i].add(v)
		}
		t.last = append(t.last[:0], m...)
		return
	}
	for i, v := range m {
		if v != t.last[i] {
			t.last[i] = v
			t.cols[i].add(v)
		}
	}
}

// InsertTail records the matches m with m[pos] set, in turn, to each id
// of the ascending tail: what Insert would record for each of them, in
// one call. The other columns take m's ids through the same comparison
// with last; column pos takes the tail in one walk over its chunks.
func (t *Table) InsertTail(m []uint32, pos int, tail []uint32) {
	if len(tail) == 0 {
		return
	}
	if len(m) != len(t.last) {
		t.ensure(len(m))
		t.last = append(t.last[:0], m...)
		for i, v := range m {
			if i != pos {
				t.cols[i].add(v)
			}
		}
	} else {
		for i, v := range m {
			if i != pos && v != t.last[i] {
				t.last[i] = v
				t.cols[i].add(v)
			}
		}
	}
	t.cols[pos].addSorted(tail)
	t.last[pos] = tail[len(tail)-1]
}

// InsertAll records a match under every automorphism of its pattern,
// producing the full MNI semantics (every embedding, not just the
// symmetry-broken representative the engine emits). auts come from
// canon.Automorphisms. Inserting representatives with Insert and calling
// Saturate once does the same work per pattern instead of per match.
func (t *Table) InsertAll(m []uint32, auts [][]int) {
	t.ensure(len(m))
	for _, a := range auts {
		for i, ai := range a {
			t.cols[i].add(m[ai])
		}
	}
}

// Saturate makes the table what it would be had every match so far been
// recorded with InsertAll(m, auts) instead of Insert(m): column i becomes
// the union of the columns a[i] over all a in auts. This is the permute
// identity of Fig. 10 — all embeddings are the representatives composed
// with the automorphisms — applied to whole columns.
func (t *Table) Saturate(auts [][]int) {
	out := make([]column, len(t.cols))
	for i := range out {
		var seen uint64 // source columns already folded into out[i]
		for _, a := range auts {
			if src := a[i]; seen&(1<<src) == 0 {
				seen |= 1 << src
				out[i].or(t.cols[src])
			}
		}
	}
	t.cols, t.last = out, t.last[:0]
}

func (t *Table) ensure(width int) {
	if len(t.cols) < width {
		t.cols = append(t.cols, make([]column, width-len(t.cols))...)
	}
}

// Merge unions other into t column-wise.
func (t *Table) Merge(other *Table) {
	t.ensure(other.Width())
	for i := range other.cols {
		t.cols[i].or(other.cols[i])
	}
}

// Permuted returns a new table whose column i is t's column f[i].
func (t *Table) Permuted(f []int) *Table {
	out := NewTable(len(f))
	for i, src := range f {
		if src < len(t.cols) {
			out.cols[i] = t.cols[src].clone()
		}
	}
	return out
}

// Clone returns a deep copy.
func (t *Table) Clone() *Table {
	out := NewTable(len(t.cols))
	for i := range t.cols {
		out.cols[i] = t.cols[i].clone()
	}
	return out
}

// Support returns the MNI support: the size of the smallest column.
// The empty table has support 0.
func (t *Table) Support() int {
	if len(t.cols) == 0 {
		return 0
	}
	support := t.cols[0].count()
	for i := 1; i < len(t.cols) && support > 0; i++ {
		support = min(support, t.cols[i].count())
	}
	return support
}

// Column returns the sorted contents of column i (for tests and output).
func (t *Table) Column(i int) []uint32 {
	if i >= len(t.cols) {
		return nil
	}
	c := t.cols[i]
	out := make([]uint32, 0, c.count())
	for k := range c {
		out = appendIDs(out, &c[k], uint32(c[k].key)<<16)
	}
	return out
}

// Equal reports column-wise equality.
func (t *Table) Equal(other *Table) bool {
	if t.Width() != other.Width() {
		return false
	}
	for i := range t.cols {
		if !t.cols[i].equal(other.cols[i]) {
			return false
		}
	}
	return true
}

// String renders the table compactly for diagnostics.
func (t *Table) String() string {
	s := "MNI{"
	for i := range t.cols {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprint(t.Column(i))
	}
	return s + "}"
}

// column is one set of vertex ids: its non-empty chunks, ascending by key.
type column []chunk

func (c *column) add(v uint32) {
	hi, lo := uint16(v>>16), uint16(v)
	k := c.search(hi)
	if k == len(*c) || (*c)[k].key != hi {
		*c = slices.Insert(*c, k, chunk{key: hi})
	}
	(*c)[k].add(lo)
}

// addSorted adds ascending ids: one chunk search per 2^16 range, then a
// word OR per id when the range's bitmap already reaches its largest id.
func (c *column) addSorted(ids []uint32) {
	for len(ids) > 0 {
		hi := uint16(ids[0] >> 16)
		n := 1
		for n < len(ids) && uint16(ids[n]>>16) == hi {
			n++
		}
		k := c.search(hi)
		if k == len(*c) || (*c)[k].key != hi {
			*c = slices.Insert(*c, k, chunk{key: hi})
		}
		ch := &(*c)[k]
		if ch.bitmap && int(uint16(ids[n-1])>>6) < len(ch.data) {
			for _, v := range ids[:n] {
				ch.data[uint16(v)>>6] |= 1 << (v & 63)
			}
		} else {
			for _, v := range ids[:n] {
				ch.add(uint16(v))
			}
		}
		ids = ids[n:]
	}
}

// search returns the index of the first chunk whose key is not below hi.
func (c column) search(hi uint16) int {
	i, j := 0, len(c)
	for i < j {
		if h := int(uint(i+j) >> 1); c[h].key < hi {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// or unions o into c.
func (c *column) or(o column) {
	a := *c
	if slices.EqualFunc(a, o, func(x, y chunk) bool { return x.key == y.key }) {
		for k := range o {
			a[k].or(&o[k])
		}
		return
	}
	out := make(column, 0, len(a)+len(o))
	for len(a) > 0 || len(o) > 0 {
		switch {
		case len(o) == 0 || len(a) > 0 && a[0].key < o[0].key:
			out, a = append(out, a[0]), a[1:]
		case len(a) == 0 || o[0].key < a[0].key:
			out, o = append(out, o[0].clone()), o[1:]
		default:
			a[0].or(&o[0])
			out, a, o = append(out, a[0]), a[1:], o[1:]
		}
	}
	*c = out
}

func (c column) clone() column {
	out := make(column, len(c))
	for k := range c {
		out[k] = c[k].clone()
	}
	return out
}

func (c column) count() int {
	n := 0
	for k := range c {
		n += c[k].count()
	}
	return n
}

func (c column) equal(o column) bool {
	return slices.EqualFunc(c, o, func(a, b chunk) bool {
		return a.key == b.key && a.bitmap == b.bitmap && slices.Equal(a.data, b.data)
	})
}

// chunkWords is the length of a bitmap that spans a whole chunk.
const chunkWords = 1 << 16 / 64

// chunk holds the low halves of the ids in one 2^16-aligned range, never
// none. With m the largest of its n ids, data is their ascending list
// while that is shorter than the bitmap reaching m (n < m/64+1 words), and
// that bitmap, of exactly m/64+1 words, otherwise. A listed id takes a
// whole word so that one slice serves both forms; lists therefore stay
// below 1024 entries and every insert is bounded by an 8 KiB move.
type chunk struct {
	key    uint16 // the ids' high half
	bitmap bool   // whether data is the bitmap or the list
	data   []uint64
}

func (c *chunk) add(lo uint16) {
	if w := int(lo >> 6); c.bitmap && w < len(c.data) {
		c.data[w] |= 1 << (lo & 63)
		return
	}
	c.addSlow(lo)
}

// addSlow inserts an id the bitmap, if there is one, does not reach.
func (c *chunk) addSlow(lo uint16) {
	if c.bitmap {
		words := int(lo>>6) + 1
		if c.count()+1 >= words {
			c.data = growWords(c.data, words)
			c.data[words-1] |= 1 << (lo & 63)
			return
		}
		// Reaching lo would cost more than listing the ids.
		c.data, c.bitmap = appendIDs([]uint64(nil), c, 0), false
	}
	i, found := slices.BinarySearch(c.data, uint64(lo))
	if found {
		return
	}
	c.data = slices.Insert(c.data, i, uint64(lo))
	c.normalize()
}

// normalize turns the list into the bitmap once that is no longer.
func (c *chunk) normalize() {
	words := int(c.data[len(c.data)-1]>>6) + 1
	if len(c.data) < words {
		return
	}
	bm := make([]uint64, words)
	for _, lo := range c.data {
		bm[lo>>6] |= 1 << (lo & 63)
	}
	c.data, c.bitmap = bm, true
}

// growWords extends a bitmap to n words, doubling its capacity up to the
// chunk span so that ascending inserts copy it O(log n) times.
func growWords(bm []uint64, n int) []uint64 {
	if n <= cap(bm) {
		return bm[:n] // words past len have never been written
	}
	out := make([]uint64, n, min(max(n, 2*cap(bm)), chunkWords))
	copy(out, bm)
	return out
}

// or unions o into c.
func (c *chunk) or(o *chunk) {
	switch {
	case c.bitmap && o.bitmap:
		if len(o.data) > len(c.data) {
			c.data = growWords(c.data, len(o.data))
		}
		for i, w := range o.data {
			c.data[i] |= w
		}
	case o.bitmap:
		ids := c.data
		c.data, c.bitmap = slices.Clone(o.data), true
		for _, lo := range ids {
			c.add(uint16(lo))
		}
	case c.bitmap:
		for _, lo := range o.data {
			c.add(uint16(lo))
		}
	default:
		c.data = union(c.data, o.data)
		c.normalize()
	}
}

// union merges two ascending duplicate-free lists into a new one.
func union(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

func (c *chunk) clone() chunk {
	return chunk{key: c.key, bitmap: c.bitmap, data: slices.Clone(c.data)}
}

func (c *chunk) count() int {
	if !c.bitmap {
		return len(c.data)
	}
	n := 0
	for _, w := range c.data {
		n += bits.OnesCount64(w)
	}
	return n
}

// appendIDs appends the chunk's ids, offset by base, in ascending order.
func appendIDs[T uint32 | uint64](dst []T, c *chunk, base T) []T {
	if !c.bitmap {
		for _, lo := range c.data {
			dst = append(dst, base|T(lo))
		}
		return dst
	}
	for i, w := range c.data {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, base|T(i<<6+bits.TrailingZeros64(w)))
		}
	}
	return dst
}
