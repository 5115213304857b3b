package aggr

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"morphing/internal/canon"
	"morphing/internal/pattern"
)

func TestCountBasics(t *testing.T) {
	var c Count
	if c.Zero().(uint64) != 0 {
		t.Fatal("Zero != 0")
	}
	v := must(c.Combine(uint64(3), uint64(4)))
	if v.(uint64) != 7 {
		t.Fatalf("Combine = %v", v)
	}
	if c.Permute(uint64(9), []int{1, 0}).(uint64) != 9 {
		t.Fatal("Permute must be identity for counts")
	}
	if must(c.Uncombine(uint64(7), uint64(3))).(uint64) != 4 {
		t.Fatal("Uncombine wrong")
	}
	if must(c.Scale(uint64(5), 3)).(uint64) != 15 {
		t.Fatal("Scale wrong")
	}
	if c.Idempotent() {
		t.Fatal("Count must not be idempotent")
	}
	// Leaving the range of uint64, either way, is the typed error.
	const top = uint64(1) << 63
	for name, err := range map[string]error{
		"sum":        second(c.Combine(top, top)),
		"product":    second(c.Scale(top, 2)),
		"difference": second(c.Uncombine(uint64(1), uint64(2))),
	} {
		if !errors.Is(err, ErrOverflow) {
			t.Errorf("%s out of range: %v, want ErrOverflow", name, err)
		}
	}
	if v := must(c.Combine(top, top-1)).(uint64); v != ^uint64(0) {
		t.Fatalf("largest sum = %d", v)
	}
}

func must(v Value, err error) Value {
	if err != nil {
		panic(err)
	}
	return v
}

func second(_ Value, err error) error { return err }

func TestMNITableInsertSupport(t *testing.T) {
	tb := NewTable(3)
	if tb.Support() != 0 {
		t.Fatal("empty table support != 0")
	}
	tb.Insert([]uint32{1, 2, 3})
	tb.Insert([]uint32{4, 2, 5})
	if tb.Support() != 1 {
		t.Fatalf("support = %d, want 1 (column 1 has only {2})", tb.Support())
	}
	if got := tb.Column(0); !reflect.DeepEqual(got, []uint32{1, 4}) {
		t.Fatalf("column 0 = %v", got)
	}
	if tb.Width() != 3 {
		t.Fatalf("width = %d", tb.Width())
	}
}

func TestMNIInsertAllSaturatesSymmetry(t *testing.T) {
	// Wedge: vertices 0 and 2 are symmetric. Inserting (5,6,7) under all
	// automorphisms must put both 5 and 7 into columns 0 and 2.
	p := pattern.Wedge()
	auts := canon.Automorphisms(p)
	tb := NewTable(3)
	tb.InsertAll([]uint32{5, 6, 7}, auts)
	if got := tb.Column(0); !reflect.DeepEqual(got, []uint32{5, 7}) {
		t.Fatalf("column 0 = %v, want [5 7]", got)
	}
	if got := tb.Column(2); !reflect.DeepEqual(got, []uint32{5, 7}) {
		t.Fatalf("column 2 = %v, want [5 7]", got)
	}
	if got := tb.Column(1); !reflect.DeepEqual(got, []uint32{6}) {
		t.Fatalf("column 1 = %v, want [6]", got)
	}
}

func TestMNIPermuted(t *testing.T) {
	tb := NewTable(2)
	tb.Insert([]uint32{1, 2})
	// f = [1,0]: new column 0 pulls old column 1.
	p := tb.Permuted([]int{1, 0})
	if got := p.Column(0); !reflect.DeepEqual(got, []uint32{2}) {
		t.Fatalf("permuted column 0 = %v", got)
	}
	if got := p.Column(1); !reflect.DeepEqual(got, []uint32{1}) {
		t.Fatalf("permuted column 1 = %v", got)
	}
}

func TestMNIMergeAndEqual(t *testing.T) {
	a := NewTable(2)
	a.Insert([]uint32{1, 2})
	b := NewTable(2)
	b.Insert([]uint32{3, 2})
	a.Merge(b)
	want := NewTable(2)
	want.Insert([]uint32{1, 2})
	want.Insert([]uint32{3, 2})
	if !a.Equal(want) {
		t.Fatalf("merge result %v != %v", a, want)
	}
	if a.Equal(NewTable(3)) {
		t.Fatal("tables of different width must not be Equal")
	}
}

func TestMNIAggregationInterface(t *testing.T) {
	var m MNI
	if !m.Idempotent() {
		t.Fatal("MNI must be idempotent")
	}
	a := NewTable(2)
	a.Insert([]uint32{1, 2})
	// Combine must not mutate inputs.
	b := NewTable(2)
	b.Insert([]uint32{9, 8})
	out := must(m.Combine(a, b)).(*Table)
	if len(a.Column(0)) != 1 || len(b.Column(0)) != 1 {
		t.Fatal("Combine mutated an input")
	}
	if got := out.Column(0); !reflect.DeepEqual(got, []uint32{1, 9}) {
		t.Fatalf("combined column 0 = %v", got)
	}
	// Idempotence: a ⊕ a == a.
	same := must(m.Combine(a, a)).(*Table)
	if !same.Equal(a) {
		t.Fatal("Combine(a,a) != a")
	}
	// Zero adapts width.
	z := must(m.Combine(m.Zero(), a)).(*Table)
	if !z.Equal(a) {
		t.Fatal("Zero is not an identity")
	}
}

func TestMNIZeroCombineCommutes(t *testing.T) {
	var m MNI
	a := NewTable(2)
	a.Insert([]uint32{4, 5})
	left := must(m.Combine(m.Zero(), a)).(*Table)
	right := must(m.Combine(a, m.Zero())).(*Table)
	if !left.Equal(right) || !left.Equal(a) {
		t.Fatal("Zero must be a two-sided identity")
	}
}

func TestQuickMNICombineCommutative(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var m MNI
	f := func(seed int64) bool {
		_ = seed
		a, b := randomTable(r), randomTable(r)
		ab := must(m.Combine(a, b)).(*Table)
		ba := must(m.Combine(b, a)).(*Table)
		return ab.Equal(ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMNIPermuteRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		_ = seed
		tb := randomTable(r)
		w := tb.Width()
		perm := r.Perm(w)
		inv := make([]int, w)
		for i, v := range perm {
			inv[v] = i
		}
		return tb.Permuted(perm).Permuted(inv).Equal(tb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randomTable(r *rand.Rand) *Table {
	w := 2 + r.Intn(4)
	tb := NewTable(w)
	rows := r.Intn(6)
	for i := 0; i < rows; i++ {
		m := make([]uint32, w)
		for j := range m {
			m[j] = uint32(r.Intn(10))
		}
		tb.Insert(m)
	}
	return tb
}

func TestExistsAggregation(t *testing.T) {
	var e Exists
	if e.Zero().(bool) {
		t.Fatal("Zero must be false")
	}
	if !must(e.Combine(false, true)).(bool) || must(e.Combine(false, false)).(bool) {
		t.Fatal("Combine is not logical or")
	}
	if !e.Idempotent() {
		t.Fatal("Exists must be idempotent")
	}
	if e.Permute(true, []int{1, 0}) != true {
		t.Fatal("Permute must be identity")
	}
	if _, ok := Aggregation(e).(Invertible); ok {
		t.Fatal("Exists must not be invertible")
	}
}
