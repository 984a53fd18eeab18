package filter

import (
	"strings"
)

// Template returns the filter's template string per Section 3.4.2 of the
// paper: the RFC 2254 representation with every assertion value replaced by
// the "_" character. Substring assertions keep their wildcard structure with
// each non-empty component replaced by "_", so (sn=smi*) has template (sn=_*)
// and (sn=*mi*th) has template (sn=*_*_). Presence assertions keep "*".
//
// Two queries generated from the same application prototype produce the same
// template, which is what makes template-indexed containment effective.
func (n *Node) Template() string {
	var b strings.Builder
	n.write(&b, true)
	return b.String()
}

// SlotValues returns the assertion values of the filter's predicates in the
// left-to-right order that Template visits them. Presence predicates
// contribute no slots; substring predicates contribute one slot per
// non-empty component (initial, each any, final). For two filters with equal
// templates, slot i of one corresponds to slot i of the other — the basis of
// Proposition 3 same-template containment.
func (n *Node) SlotValues() []string {
	var out []string
	collectSlots(n, &out)
	return out
}

func collectSlots(n *Node, out *[]string) {
	if n == nil {
		return
	}
	switch n.Op {
	case And, Or, Not:
		for _, c := range n.Children {
			collectSlots(c, out)
		}
	case EQ, GE, LE:
		*out = append(*out, n.Value)
	case Substr:
		if n.Sub == nil {
			return
		}
		if n.Sub.Initial != "" {
			*out = append(*out, n.Sub.Initial)
		}
		for _, a := range n.Sub.Any {
			if a != "" {
				*out = append(*out, a)
			}
		}
		if n.Sub.Final != "" {
			*out = append(*out, n.Sub.Final)
		}
	}
}
