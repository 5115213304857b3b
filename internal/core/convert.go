package core

import (
	"bytes"
	"fmt"

	"morphing/internal/aggr"
	"morphing/internal/canon"
	"morphing/internal/pattern"
)

// ErrCountOverflow reports a conversion (or an equation check) whose
// count arithmetic left the range of uint64 — a sum or a coefficient
// product beyond it, or a subtraction below zero, which is what an
// alternative's wrapped total looks like downstream. Convert returns it
// wrapped, through Runner.CountsCtx to the caller (morphd: a fatal
// "internal" error document). It is aggr.ErrOverflow under core's name.
var ErrCountOverflow = aggr.ErrOverflow

// Convert implements result transformation for batched output (§6.1,
// Algorithm 2, generalized to mixed-variant alternative sets): given the
// aggregation value mined for each Choice (indexed as in sel.Mine), it
// returns one value per query (indexed as in sel.Queries).
//
// The algebra follows Eq. 2. For every structure s in a morphed query's
// up-set the vertex-induced value is established first — directly if s was
// mined vertex-induced, by subtraction (Invertible aggregations only) if
// mined edge-induced — processing structures from most edges (the clique,
// whose variants coincide) downward. A query's result is then either that
// vertex-induced value (vertex-induced queries) or the Eq. 2 combination
// over its up-set (edge-induced queries), with values re-indexed into the
// query's own vertex numbering through the permute operator.
func (sel *Selection) Convert(agg aggr.Aggregation, mined []aggr.Value) ([]aggr.Value, error) {
	if len(mined) != len(sel.Mine) {
		return nil, fmt.Errorf("core: %d mined values for %d choices", len(mined), len(sel.Mine))
	}
	c := &converter{sel: sel, agg: agg, mined: mined, vValues: map[uint64]aggr.Value{}}
	out := make([]aggr.Value, len(sel.Queries))
	for i, q := range sel.Queries {
		v, err := c.queryValue(q)
		if err != nil {
			return nil, fmt.Errorf("core: query %d (%v): %w", i, q.Pattern, err)
		}
		out[i] = v
	}
	return out, nil
}

type converter struct {
	sel     *Selection
	agg     aggr.Aggregation
	mined   []aggr.Value
	vValues map[uint64]aggr.Value // structure ID -> vertex-induced value (frame numbering)
}

// minedValue returns the mined value and frame for (structure, variant),
// or ok=false.
func (c *converter) minedValue(id uint64, v pattern.Induced) (aggr.Value, *pattern.Pattern, bool) {
	idx, ok := c.sel.byPair[pairKey{id, v}]
	if !ok {
		return nil, nil, false
	}
	return c.mined[idx], c.sel.Mine[idx].Pattern, true
}

// queryValue produces the final value for one query.
func (c *converter) queryValue(q Query) (aggr.Value, error) {
	k := pairKey{q.Node.ID, normVariant(q.Pattern)}
	if idx, direct := c.sel.byPair[k]; direct {
		// Mined as-is. The frame is normally the query object itself;
		// duplicate queries of one structure share a frame and re-index
		// through it (a no-op for identical objects).
		return c.reindex(q.Pattern, c.sel.Mine[idx].Pattern, c.mined[idx])
	}
	if normVariant(q.Pattern) == pattern.VertexInduced {
		// Vertex-induced query derived subtractively: take the
		// vertex-induced value of its own structure, re-indexed.
		vv, frame, err := c.vertexValue(q.Node)
		if err != nil {
			return nil, err
		}
		return c.reindex(q.Pattern, frame, vv)
	}
	// Edge-induced query: Eq. 2 over the up-set.
	up, err := c.sel.SDAG.UpSet(q.Node)
	if err != nil {
		return nil, err
	}
	result := c.agg.Zero()
	for _, s := range up {
		vv, frame, err := c.vertexValue(s)
		if err != nil {
			return nil, err
		}
		contrib, err := c.project(q.Pattern, frame, vv)
		if err != nil {
			return nil, err
		}
		if result, err = c.agg.Combine(result, contrib); err != nil {
			return nil, err
		}
	}
	return result, nil
}

// vertexValue returns the vertex-induced value of structure node n in its
// frame's numbering, deriving it if necessary.
func (c *converter) vertexValue(n *Node) (aggr.Value, *pattern.Pattern, error) {
	frame := c.frameOf(n)
	if v, ok := c.vValues[n.ID]; ok {
		return v, frame, nil
	}
	if v, f, ok := c.minedValue(n.ID, pattern.VertexInduced); ok {
		c.vValues[n.ID] = v
		return v, f, nil
	}
	if n.Pattern.IsClique() {
		// Cliques normalize to the edge-induced pair but the value is the
		// same in both semantics.
		if v, f, ok := c.minedValue(n.ID, pattern.EdgeInduced); ok {
			c.vValues[n.ID] = v
			return v, f, nil
		}
		return nil, nil, fmt.Errorf("clique structure %d not mined", n.ID)
	}
	// Subtractive derivation from the edge-induced value.
	eVal, eFrame, ok := c.minedValue(n.ID, pattern.EdgeInduced)
	if !ok {
		return nil, nil, fmt.Errorf("structure %d mined in neither variant (selection coverage bug)", n.ID)
	}
	inv, isInv := c.agg.(aggr.Invertible)
	if !isInv {
		return nil, nil, fmt.Errorf("aggregation %q is not invertible but structure %d was mined edge-induced", c.agg.Name(), n.ID)
	}
	supers, err := c.sel.SDAG.StrictUpSet(n)
	if err != nil {
		return nil, nil, err
	}
	super := c.agg.Zero()
	for _, s := range supers {
		vv, sFrame, err := c.vertexValue(s)
		if err != nil {
			return nil, nil, err
		}
		contrib, err := c.project(eFrame, sFrame, vv)
		if err != nil {
			return nil, nil, err
		}
		if super, err = c.agg.Combine(super, contrib); err != nil {
			return nil, nil, err
		}
	}
	v, err := inv.Uncombine(eVal, super)
	if err != nil {
		return nil, nil, err
	}
	c.vValues[n.ID] = v
	return v, eFrame, nil
}

// frameOf returns the pattern object whose numbering the structure's
// values use: the vertex-induced frame if mined, else the edge-induced
// frame, else the canonical representative.
func (c *converter) frameOf(n *Node) *pattern.Pattern {
	if _, f, ok := c.minedValue(n.ID, pattern.VertexInduced); ok {
		return f
	}
	if _, f, ok := c.minedValue(n.ID, pattern.EdgeInduced); ok {
		return f
	}
	return n.Pattern
}

// project combines the value of superpattern structure `frame` into query
// pattern p's numbering, applying the ◦* permute operator over the
// conversion maps phi(p, frame): every isomorphism for idempotent
// aggregations, one per automorphism coset otherwise.
func (c *converter) project(p, frame *pattern.Pattern, v aggr.Value) (aggr.Value, error) {
	maps := ConversionMaps(p, frame, c.agg.Idempotent())
	if len(maps) == 0 {
		// No occurrences of p inside frame (possible only when frame is
		// not actually a superpattern — a bug upstream).
		return nil, fmt.Errorf("no isomorphisms from %v into %v", p, frame)
	}
	out := c.agg.Zero()
	for _, f := range maps {
		var err error
		if out, err = c.agg.Combine(out, c.agg.Permute(v, f)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// reindex maps a value from frame numbering to p's numbering when p and
// frame are the same structure.
func (c *converter) reindex(p, frame *pattern.Pattern, v aggr.Value) (aggr.Value, error) {
	if p == frame || p.Equal(frame.Variant(p.Induced())) {
		return v, nil
	}
	return c.project(p, frame, v)
}

// ConversionMaps returns the vertex maps used to convert results of
// superpattern q into results of pattern p. With all==true it returns
// every isomorphism phi(p,q) (idempotent aggregations, Algorithm 2);
// otherwise one representative per Aut(p)-coset, i.e. one map per distinct
// copy of p inside q (additive aggregations and match streams — the
// coefficients of Fig. 7). The result is memoized process-wide (a bounded
// canon.Memo) and shared: treat it as read-only.
func ConversionMaps(p, q *pattern.Pattern, all bool) [][]int {
	key := canon.Key(p) + "|" + canon.Key(q)
	if all {
		key += "*"
	}
	if maps, ok := convMapMemo.Get(key); ok {
		return maps
	}
	maps := conversionMaps(p, q, all)
	convMapMemo.Put(key, maps)
	return maps
}

var convMapMemo canon.Memo[string, [][]int]

func conversionMaps(p, q *pattern.Pattern, all bool) [][]int {
	isos := canon.Isomorphisms(p, q)
	if all || len(isos) == 0 {
		return isos
	}
	auts := canon.Automorphisms(p)
	n := p.N()
	seen := map[string]bool{}
	var reps [][]int
	buf := make([]byte, n)
	best := make([]byte, n)
	for _, f := range isos {
		// Canonical coset key: the lexicographically smallest f∘a.
		// Vertex counts are <= pattern.MaxVertices, so one byte each.
		for bi := range best {
			best[bi] = 0xFF
		}
		for _, a := range auts {
			for i := 0; i < n; i++ {
				buf[i] = byte(f[a[i]])
			}
			if bytes.Compare(buf, best) < 0 {
				copy(best, buf)
			}
		}
		k := string(best)
		if !seen[k] {
			seen[k] = true
			reps = append(reps, f)
		}
	}
	return reps
}

// CopyCoefficient returns the multiplicity coefficient of superpattern q
// in the conversion equation of pattern p (e.g. 3 for the 4-cycle inside
// the 4-clique, Fig. 7).
func CopyCoefficient(p, q *pattern.Pattern) int {
	return len(ConversionMaps(p, q, false))
}
