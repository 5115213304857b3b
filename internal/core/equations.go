package core

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"morphing/internal/canon"
	"morphing/internal/pattern"
)

// Equation is one morphing identity (Fig. 7): the left-hand pattern's
// results expressed over right-hand terms with copy-count coefficients.
type Equation struct {
	LHS   *pattern.Pattern
	Terms []EquationTerm
}

// EquationTerm is one coefficient-weighted pattern on an equation's
// right-hand side.
type EquationTerm struct {
	Coefficient int
	Pattern     *pattern.Pattern
	// Negative marks subtractive terms (vertex-induced identities).
	Negative bool
}

// EdgeInducedEquation derives the [SM-E*] identity for p (Fig. 7 / Eq. 1
// aggregated): count(p_E) = Σ over the same-size vertex-induced up-set of
// copies(p,q) · count(q_V).
func EdgeInducedEquation(d *SDAG, p *pattern.Pattern) (Equation, error) {
	n := d.Node(p)
	if n == nil {
		return Equation{}, fmt.Errorf("core: pattern %v not in S-DAG", p)
	}
	up, err := d.UpSet(n)
	if err != nil {
		return Equation{}, err
	}
	eq := Equation{LHS: p.AsEdgeInduced()}
	for _, s := range up {
		coeff := CopyCoefficient(p, s.Pattern)
		if coeff == 0 {
			continue
		}
		eq.Terms = append(eq.Terms, EquationTerm{
			Coefficient: coeff,
			Pattern:     s.Pattern.AsVertexInduced(),
		})
	}
	sortTerms(eq.Terms)
	return eq, nil
}

// VertexInducedEquation derives the [SM-V*] identity for p (rearranged
// Eq. 1): count(p_V) = count(p_E) − Σ over strict superpatterns of
// copies(p,q) · count(q_V).
func VertexInducedEquation(d *SDAG, p *pattern.Pattern) (Equation, error) {
	n := d.Node(p)
	if n == nil {
		return Equation{}, fmt.Errorf("core: pattern %v not in S-DAG", p)
	}
	supers, err := d.StrictUpSet(n)
	if err != nil {
		return Equation{}, err
	}
	eq := Equation{LHS: p.AsVertexInduced()}
	eq.Terms = append(eq.Terms, EquationTerm{Coefficient: 1, Pattern: n.Pattern.AsEdgeInduced()})
	var rest []EquationTerm
	for _, s := range supers {
		coeff := CopyCoefficient(p, s.Pattern)
		if coeff == 0 {
			continue
		}
		rest = append(rest, EquationTerm{
			Coefficient: coeff,
			Pattern:     s.Pattern.AsVertexInduced(),
			Negative:    true,
		})
	}
	sortTerms(rest)
	eq.Terms = append(eq.Terms, rest...)
	return eq, nil
}

func sortTerms(ts []EquationTerm) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Pattern.EdgeCount() != ts[j].Pattern.EdgeCount() {
			return ts[i].Pattern.EdgeCount() < ts[j].Pattern.EdgeCount()
		}
		return ts[i].Coefficient > ts[j].Coefficient
	})
}

// String renders the identity in the paper's style, e.g.
//
//	[C4]E = [C4]V + 1·[diamond]V + 3·[K4]
func (eq Equation) String() string {
	var b strings.Builder
	b.WriteString(renderPattern(eq.LHS))
	b.WriteString(" = ")
	for i, t := range eq.Terms {
		switch {
		case i == 0:
			// leading term keeps its sign implicit (always positive)
		case t.Negative:
			b.WriteString(" - ")
		default:
			b.WriteString(" + ")
		}
		if t.Coefficient != 1 {
			fmt.Fprintf(&b, "%d·", t.Coefficient)
		}
		b.WriteString(renderPattern(t.Pattern))
	}
	return b.String()
}

// renderPattern names a pattern by its figure name when known, falling
// back to the codec string, with an E/V suffix (cliques get none: the
// variants coincide).
func renderPattern(p *pattern.Pattern) string {
	name := p.String()
	for _, np := range pattern.Fig1Patterns() {
		if sameStructure(np.Pattern, p) {
			name = np.Name
			break
		}
	}
	if name == p.String() {
		for _, np := range pattern.Fig11Patterns() {
			if sameStructure(np.Pattern, p) {
				name = np.Name
				break
			}
		}
	}
	if p.IsClique() {
		return "[" + name + "]"
	}
	if p.Induced() == pattern.VertexInduced {
		return "[" + name + "]V"
	}
	return "[" + name + "]E"
}

func sameStructure(a, b *pattern.Pattern) bool {
	return canon.IsIsomorphic(a, b)
}

// Verify numerically checks an equation against per-pattern counts
// supplied by the caller (tests use the oracle): LHS == Σ ±coeff·term.
func (eq Equation) Verify(count func(p *pattern.Pattern) uint64) error {
	var pos, neg uint64
	for _, t := range eq.Terms {
		side := &pos
		if t.Negative {
			side = &neg
		}
		var err error
		if *side, err = addScaled(*side, uint64(t.Coefficient), count(t.Pattern)); err != nil {
			return fmt.Errorf("core: equation %q: %w", eq, err)
		}
	}
	lhs := count(eq.LHS)
	if pos < neg || lhs != pos-neg {
		return fmt.Errorf("core: equation %q does not hold: lhs=%d rhs=%d-%d", eq, lhs, pos, neg)
	}
	return nil
}

// addScaled returns sum + k*v, or ErrCountOverflow when that leaves uint64.
func addScaled(sum, k, v uint64) (uint64, error) {
	hi, prod := bits.Mul64(k, v)
	out, carry := bits.Add64(sum, prod, 0)
	if hi != 0 || carry != 0 {
		return 0, fmt.Errorf("%d + %d x %d: %w", sum, k, v, ErrCountOverflow)
	}
	return out, nil
}
