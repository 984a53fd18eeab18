// Package selection implements replica content determination (Section 6):
// generalizing user queries into candidate filters that capture semantic and
// spatial locality, tracking per-candidate hit statistics, and periodically
// re-selecting the stored filter set by benefit/size ratio — the paper's
// lightweight approximation of the evolution/revolution algorithm of
// Kapitskaia, Ng and Srivastava (EDBT 2000).
package selection

import (
	"strings"

	"filterdir/internal/entry"
	"filterdir/internal/filter"
	"filterdir/internal/query"
)

// Rule produces zero or more generalized queries from a user query.
// Generalized queries must semantically contain the input (guideline (i)
// and (ii) of Section 6.1: attribute-component and hierarchy
// generalization).
type Rule interface {
	Generalize(q query.Query) []query.Query
}

// PrefixRule generalizes equality predicates on a structured attribute into
// prefix filters: (serialNumber=0456) with PrefixLen 2 becomes
// (serialNumber=04*). Attribute components with locality (geography or
// department prefixes in serial numbers) make these filters describe
// frequently accessed regions.
type PrefixRule struct {
	Attr      string
	PrefixLen int
}

// Generalize implements Rule.
func (r PrefixRule) Generalize(q query.Query) []query.Query {
	if q.Filter == nil {
		return nil
	}
	attr := strings.ToLower(r.Attr)
	changed := false
	gen := rewrite(q.Filter, func(n *filter.Node) *filter.Node {
		if n.Op == filter.EQ && n.Attr == attr && len(n.Value) > r.PrefixLen && r.PrefixLen > 0 {
			changed = true
			return filter.NewSubstr(attr, filter.Substring{Initial: n.Value[:r.PrefixLen]})
		}
		if n.Op == filter.Substr && n.Attr == attr && n.Sub != nil &&
			len(n.Sub.Initial) > r.PrefixLen && r.PrefixLen > 0 {
			changed = true
			return filter.NewSubstr(attr, filter.Substring{Initial: n.Sub.Initial[:r.PrefixLen]})
		}
		return n
	})
	if !changed {
		return nil
	}
	out := q
	out.Filter = gen.Normalize()
	return []query.Query{out}
}

// WidenRule generalizes by the natural hierarchy of filters: predicates on
// the listed attributes are dropped from conjunctions, so
// (&(dept=2406)(div=sw)) widens to (&(objectclass=department)(div=sw)) — all
// departments of the division. ReplaceWith, when non-empty, substitutes a
// class predicate for the dropped one to keep the filter anchored.
type WidenRule struct {
	DropAttr    string
	ReplaceWith *filter.Node // optional predicate replacing the dropped one
}

// Generalize implements Rule.
func (r WidenRule) Generalize(q query.Query) []query.Query {
	if q.Filter == nil {
		return nil
	}
	attr := strings.ToLower(r.DropAttr)
	changed := false
	gen := rewrite(q.Filter, func(n *filter.Node) *filter.Node {
		if n.IsPredicate() && n.Attr == attr {
			changed = true
			if r.ReplaceWith != nil {
				return r.ReplaceWith.Clone()
			}
			return &filter.Node{Op: filter.True}
		}
		return n
	})
	if !changed {
		return nil
	}
	norm := gen.Normalize()
	if norm.Op == filter.True {
		return nil // refusing to generalize to match-all
	}
	out := q
	out.Filter = norm
	return []query.Query{out}
}

// rewrite returns a copy of the filter with fn applied bottom-up to every
// predicate node in POSITIVE polarity. Predicates under an odd number of
// NOTs (or carrying a negation themselves) are copied untouched: widening a
// subformula under negation narrows the whole filter, so a rule firing
// there would emit a "generalization" that does not contain the input.
func rewrite(n *filter.Node, fn func(*filter.Node) *filter.Node) *filter.Node {
	return rewritePolarity(n, true, fn)
}

func rewritePolarity(n *filter.Node, positive bool, fn func(*filter.Node) *filter.Node) *filter.Node {
	if n == nil {
		return nil
	}
	if n.IsPredicate() {
		c := n.Clone()
		if !positive || n.Neg {
			return c
		}
		return fn(c)
	}
	c := &filter.Node{Op: n.Op, Attr: n.Attr, Value: n.Value, Neg: n.Neg}
	childPolarity := positive
	if n.Op == filter.Not {
		childPolarity = !positive
	}
	for _, ch := range n.Children {
		c.Children = append(c.Children, rewritePolarity(ch, childPolarity, fn))
	}
	return c
}

// Generalizer applies a rule set to user queries.
type Generalizer struct {
	rules []Rule
}

// NewGeneralizer builds a generalizer from rules.
func NewGeneralizer(rules ...Rule) *Generalizer {
	return &Generalizer{rules: rules}
}

// Generalize returns the deduplicated candidate queries produced by all
// rules for a user query.
func (g *Generalizer) Generalize(q query.Query) []query.Query {
	var out []query.Query
	seen := make(map[string]bool)
	for _, r := range g.rules {
		for _, cand := range r.Generalize(q) {
			n := cand.Normalize()
			k := n.Key()
			if !seen[k] {
				seen[k] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// DefaultEnterpriseRules returns the generalization rules used by the
// paper's case study: serial-number prefix classes at two granularities and
// department-hierarchy widening.
func DefaultEnterpriseRules() []Rule {
	deptClass := filter.NewEQ(entry.AttrObjectClass, "department")
	return []Rule{
		PrefixRule{Attr: "serialnumber", PrefixLen: 2},
		PrefixRule{Attr: "serialnumber", PrefixLen: 3},
		WidenRule{DropAttr: "dept", ReplaceWith: deptClass},
	}
}
