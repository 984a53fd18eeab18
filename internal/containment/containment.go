package containment

import (
	"slices"
	"strconv"

	"filterdir/internal/entry"
	"filterdir/internal/filter"
	"filterdir/internal/query"
)

// SameTemplateContains decides containment for two positive filters of the
// same template by Proposition 3: each predicate of F1 must be contained in
// the corresponding predicate of F2, requiring only O(n) assertion-value
// comparisons. The caller must ensure the templates are equal and both
// filters positive; the result is unspecified otherwise.
func SameTemplateContains(f1, f2 *filter.Node) bool {
	p1 := f1.Predicates()
	p2 := f2.Predicates()
	if len(p1) != len(p2) {
		return false
	}
	for i := range p1 {
		if !predicateContains(p1[i], p2[i]) {
			return false
		}
	}
	return true
}

// predicateContains decides containment of one predicate in another of the
// same op and attribute.
func predicateContains(a, b *filter.Node) bool {
	if a.Op != b.Op || a.Attr != b.Attr {
		return false
	}
	kind := entry.OrderingFor(a.Attr)
	switch a.Op {
	case filter.Present:
		return true
	case filter.EQ:
		return entry.EqualValues(a.Value, b.Value)
	case filter.GE:
		// [v1, ∞) ⊆ [v2, ∞) iff v1 >= v2.
		cmp, ok := entry.CompareOrdered(kind, a.Value, b.Value)
		if ok {
			return cmp >= 0
		}
		// Undefined: if v1 cannot match anything, containment holds.
		_, ok1 := entry.ParseInt(a.Value)
		return !ok1
	case filter.LE:
		cmp, ok := entry.CompareOrdered(kind, a.Value, b.Value)
		if ok {
			return cmp <= 0
		}
		_, ok1 := entry.ParseInt(a.Value)
		return !ok1
	case filter.Substr:
		return substringContains(a.Sub, b.Sub)
	default:
		return false
	}
}

// substringContains decides whether every value matching pattern a also
// matches pattern b, for patterns of identical wildcard structure (same
// template): b's initial must prefix a's initial, b's final must suffix a's
// final, and each any component of b must occur inside the corresponding any
// component of a.
func substringContains(a, b *filter.Substring) bool {
	if a == nil || b == nil {
		return b == nil
	}
	if len(a.Any) != len(b.Any) {
		return false
	}
	if !entry.HasPrefixValue(a.Initial, b.Initial) || !entry.HasSuffixValue(a.Final, b.Final) {
		return false
	}
	for i := range a.Any {
		if !entry.ContainsValue(a.Any[i], b.Any[i]) {
			return false
		}
	}
	return true
}

// ScopeContains implements the base/scope region check of the paper's QC
// algorithm: the region defined by q's base and scope must fall completely
// inside the region of qs.
func ScopeContains(q, qs query.Query) bool {
	if qs.Base.Equal(q.Base) {
		return qs.Scope >= q.Scope
	}
	if !qs.Base.IsSuffix(q.Base) {
		return false
	}
	if qs.Scope == query.ScopeSubtree {
		return true
	}
	// A single-level region contains a base region at a direct child.
	return qs.Scope > q.Scope && qs.Base.IsParent(q.Base)
}

// orDefault substitutes the match-everything filter for nil and rewrites
// (objectclass=*) to the absolute-true filter: every entry in the directory
// carries an objectclass, so the presence test is a match-all — the paper
// relies on this to replicate null-based queries. The rule holds because a
// master enforces it: dit's requireClass refuses an entry without an
// objectclass value on Store.Add, Store.Load, Store.Modify and Store.ApplyCSN
// (wire adds and modifies, edge forwards). Replica images that a stored query's
// attribute list strips of the class are never asked about it: QueryContains
// admits no query whose filter names an attribute the stored query drops.
func orDefault(f *filter.Node) *filter.Node {
	if f == nil {
		return &filter.Node{Op: filter.True}
	}
	return rewriteMatchAll(f)
}

func rewriteMatchAll(f *filter.Node) *filter.Node {
	if f.Op == filter.Present && f.Attr == entry.AttrObjectClass {
		return &filter.Node{Op: filter.True}
	}
	var kids []*filter.Node // the children, copied once one of them changes
	for i, c := range f.Children {
		k := rewriteMatchAll(c)
		if k != c && kids == nil {
			kids = slices.Clone(f.Children)
		}
		if kids != nil {
			kids[i] = k
		}
	}
	if kids == nil {
		return f
	}
	c := *f
	c.Children = kids
	return &c
}

// withMarkers clones a filter, replacing each assertion value with a slot
// marker in SlotValues order; the result is used to compile a template
// pair's containment condition once, independent of concrete values.
func withMarkers(n *filter.Node, prefix string) *filter.Node {
	c := n.Clone()
	i := 0
	markSlots(c, prefix, &i)
	return c
}

func markSlots(n *filter.Node, prefix string, i *int) {
	if n == nil {
		return
	}
	switch n.Op {
	case filter.And, filter.Or, filter.Not:
		for _, ch := range n.Children {
			markSlots(ch, prefix, i)
		}
	case filter.EQ, filter.GE, filter.LE:
		n.Value = prefix + strconv.Itoa(*i)
		*i++
	case filter.Substr:
		if n.Sub == nil {
			return
		}
		if n.Sub.Initial != "" {
			n.Sub.Initial = prefix + strconv.Itoa(*i)
			*i++
		}
		for k := range n.Sub.Any {
			n.Sub.Any[k] = prefix + strconv.Itoa(*i)
			*i++
		}
		if n.Sub.Final != "" {
			n.Sub.Final = prefix + strconv.Itoa(*i)
			*i++
		}
	}
}
