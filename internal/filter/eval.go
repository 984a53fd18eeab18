package filter

import (
	"filterdir/internal/entry"
)

// Matches evaluates the filter against an entry using the standard matching
// rules (case-insensitive equality and substrings, integer-aware ordering).
// A predicate on an absent attribute evaluates to false; its negation
// therefore evaluates to true, matching LDAP's treatment of Undefined under
// NOT for the purposes of this system (strict three-valued semantics would
// make (!(a=b)) undefined for entries lacking a; the paper's replication
// algorithms operate on positive filters where the distinction never
// arises).
func (n *Node) Matches(e *entry.Entry) bool {
	if n == nil {
		return true
	}
	res := n.matchesPositive(e)
	if n.Neg {
		return !res
	}
	return res
}

func (n *Node) matchesPositive(e *entry.Entry) bool {
	switch n.Op {
	case True:
		return true
	case False:
		return false
	case And:
		for _, c := range n.Children {
			if !c.Matches(e) {
				return false
			}
		}
		return true
	case Or:
		for _, c := range n.Children {
			if c.Matches(e) {
				return true
			}
		}
		return false
	case Not:
		if len(n.Children) == 0 {
			return false
		}
		return !n.Children[0].Matches(e)
	case Present:
		return e.Has(n.Attr)
	case EQ:
		vals, _ := e.Lookup(n.Attr)
		for _, v := range vals {
			if entry.EqualValues(v, n.Value) {
				return true
			}
		}
		return false
	case GE:
		kind := entry.OrderingFor(n.Attr)
		vals, _ := e.Lookup(n.Attr)
		for _, v := range vals {
			if cmp, ok := entry.CompareOrdered(kind, v, n.Value); ok && cmp >= 0 {
				return true
			}
		}
		return false
	case LE:
		kind := entry.OrderingFor(n.Attr)
		vals, _ := e.Lookup(n.Attr)
		for _, v := range vals {
			if cmp, ok := entry.CompareOrdered(kind, v, n.Value); ok && cmp <= 0 {
				return true
			}
		}
		return false
	case Substr:
		if n.Sub == nil {
			return e.Has(n.Attr)
		}
		vals, _ := e.Lookup(n.Attr)
		for _, v := range vals {
			if entry.MatchSubstring(v, n.Sub.Initial, n.Sub.Any, n.Sub.Final) {
				return true
			}
		}
		return false
	default:
		return false
	}
}
