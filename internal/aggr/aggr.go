// Package aggr defines the aggregation abstraction of the morphing
// algebra (§4.3): an aggregation a = (λ, ⊕) maps match sets to values and
// combines them with a commutative operator. Result transformation needs
// two extra capabilities: a permute operator ◦* that adjusts a value under
// an isomorphic vertex remapping (Eq. 2), and — for conversions in the
// subtractive direction (deriving vertex-induced results from edge-induced
// alternatives) — an inverse ⊖.
//
// Two aggregations cover the paper's applications: Count (subgraph
// counting, motif counting; invertible) and MNI (frequent subgraph mining
// support [8]; idempotent but not invertible). Exists shows the algebra
// on a third (λ, ⊕) pair.
//
// MNI values are Tables (table.go): one compressed bitmap per pattern
// vertex, so that recording a match is a few word ORs, ⊕ and the permute
// operator are word-wise ORs and slice copies, and support is a popcount.
// A Table takes matches one at a time (Insert) or a settled candidate
// window at a time (InsertTail: a prefix and the ascending ids that
// complete it at one column, the form a streaming pass of the executor
// hands over). A Table is owned by one goroutine at a time; concurrent
// producers each fill their own and Merge them afterwards (core's MNI
// sink, one table per executor worker).
package aggr

import (
	"errors"
	"fmt"
	"math/bits"
)

// Value is an aggregation value. Each Aggregation documents its concrete
// type: uint64 for Count, *Table for MNI.
type Value any

// Aggregation is the (λ, ⊕) pair plus the permute operator.
//
// Contract for result conversion (see internal/core):
//   - Combine must be commutative and associative with Zero as identity.
//   - If Idempotent() is false, per-match values must be invariant under
//     pattern automorphisms; conversion then applies one isomorphism per
//     automorphism coset (copy multiplicity).
//   - If Idempotent() is true (Combine(a,a) == a), conversion applies every
//     isomorphism, which saturates values across symmetric positions (the
//     behaviour MNI requires).
type Aggregation interface {
	// Name identifies the aggregation in errors and logs.
	Name() string
	// Zero returns the identity of Combine.
	Zero() Value
	// Combine is ⊕. It fails only where a value has a range to leave
	// (Count: ErrOverflow).
	Combine(a, b Value) (Value, error)
	// Permute is ◦*: reindex v from a source pattern to a target pattern
	// through the isomorphism f, where f[i] is the source vertex that
	// target vertex i maps to.
	Permute(v Value, f []int) Value
	// Idempotent reports whether Combine(a, a) == a.
	Idempotent() bool
}

// Invertible aggregations additionally support ⊖, enabling the subtractive
// conversion direction (computing vertex-induced results from edge-induced
// alternatives). Counting is invertible; MNI is not — the selection logic
// uses this to constrain alternative variants.
type Invertible interface {
	Aggregation
	// Uncombine returns total ⊖ part, or an error if part is not contained
	// in total: for counts ErrOverflow — a difference below zero is what a
	// sum that wrapped upstream looks like from here.
	Uncombine(total, part Value) (Value, error)
}

// ErrOverflow reports count arithmetic that left the range of uint64: a
// sum or product beyond it, or a difference below zero. Batched conversion
// subtracts, so a wrapped intermediate would otherwise come out as a
// plausible small count.
var ErrOverflow = errors.New("count overflow")

// Count aggregates matches by counting them. Values are uint64.
type Count struct{}

var _ Invertible = Count{}

// Name implements Aggregation.
func (Count) Name() string { return "count" }

// Zero implements Aggregation.
func (Count) Zero() Value { return uint64(0) }

// Combine implements Aggregation.
func (Count) Combine(a, b Value) (Value, error) {
	sum, carry := bits.Add64(a.(uint64), b.(uint64), 0)
	if carry != 0 {
		return nil, fmt.Errorf("aggr: %d + %d: %w", a, b, ErrOverflow)
	}
	return sum, nil
}

// Permute implements Aggregation: counts are invariant under vertex
// remapping.
func (Count) Permute(v Value, f []int) Value { return v }

// Idempotent implements Aggregation.
func (Count) Idempotent() bool { return false }

// Uncombine implements Invertible.
func (Count) Uncombine(total, part Value) (Value, error) {
	diff, borrow := bits.Sub64(total.(uint64), part.(uint64), 0)
	if borrow != 0 {
		return nil, fmt.Errorf("aggr: %d - %d: %w", total, part, ErrOverflow)
	}
	return diff, nil
}

// Scale multiplies a count by an integer coefficient (the copy counts in
// the morphing equations of Fig. 7). It is Count-specific: general
// aggregations express multiplicity by repeated Combine.
func (Count) Scale(v Value, k uint64) (Value, error) {
	hi, lo := bits.Mul64(v.(uint64), k)
	if hi != 0 {
		return nil, fmt.Errorf("aggr: %d x %d: %w", v, k, ErrOverflow)
	}
	return lo, nil
}

// MNI aggregates matches into minimum-node-image tables [8]. Values are
// *Table. MNI is idempotent (column union) and has no inverse.
type MNI struct{}

var _ Aggregation = MNI{}

// Name implements Aggregation.
func (MNI) Name() string { return "mni" }

// Zero implements Aggregation: an empty table adapts its width on first
// Combine.
func (MNI) Zero() Value { return &Table{} }

// Combine implements Aggregation by column-wise union.
func (MNI) Combine(a, b Value) (Value, error) {
	ta, tb := a.(*Table), b.(*Table)
	out := ta.Clone()
	out.Merge(tb)
	return out, nil
}

// Permute implements Aggregation: column i of the result is column f[i]
// of the source (Fig. 10).
func (MNI) Permute(v Value, f []int) Value {
	return v.(*Table).Permuted(f)
}

// Idempotent implements Aggregation.
func (MNI) Idempotent() bool { return true }

// Exists aggregates matches into a boolean: does at least one exist?
// Values are bool. Like MNI it is idempotent (logical or) and has no
// inverse, so morphing uses the additive direction only; it demonstrates
// the algebra's generality over arbitrary (λ, ⊕) pairs (§4.3).
type Exists struct{}

var _ Aggregation = Exists{}

// Name implements Aggregation.
func (Exists) Name() string { return "exists" }

// Zero implements Aggregation.
func (Exists) Zero() Value { return false }

// Combine implements Aggregation (logical or).
func (Exists) Combine(a, b Value) (Value, error) { return a.(bool) || b.(bool), nil }

// Permute implements Aggregation: existence is invariant under vertex
// remapping.
func (Exists) Permute(v Value, f []int) Value { return v }

// Idempotent implements Aggregation.
func (Exists) Idempotent() bool { return true }
