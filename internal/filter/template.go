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
	writeTemplate(&b, n)
	return b.String()
}

func writeTemplate(b *strings.Builder, n *Node) {
	if n == nil {
		return
	}
	if n.Neg {
		b.WriteString("(!")
		pos := *n
		pos.Neg = false
		writeTemplate(b, &pos)
		b.WriteByte(')')
		return
	}
	switch n.Op {
	case And, Or:
		b.WriteByte('(')
		if n.Op == And {
			b.WriteByte('&')
		} else {
			b.WriteByte('|')
		}
		for _, c := range n.Children {
			writeTemplate(b, c)
		}
		b.WriteByte(')')
	case Not:
		b.WriteString("(!")
		if len(n.Children) > 0 {
			writeTemplate(b, n.Children[0])
		}
		b.WriteByte(')')
	case EQ:
		b.WriteByte('(')
		b.WriteString(n.Attr)
		b.WriteString("=_)")
	case GE:
		b.WriteByte('(')
		b.WriteString(n.Attr)
		b.WriteString(">=_)")
	case LE:
		b.WriteByte('(')
		b.WriteString(n.Attr)
		b.WriteString("<=_)")
	case Present:
		b.WriteByte('(')
		b.WriteString(n.Attr)
		b.WriteString("=*)")
	case Substr:
		b.WriteByte('(')
		b.WriteString(n.Attr)
		b.WriteByte('=')
		writeSubstringTemplate(b, n.Sub)
		b.WriteByte(')')
	case True:
		b.WriteString("(&)")
	case False:
		b.WriteString("(|)")
	}
}

func writeSubstringTemplate(b *strings.Builder, s *Substring) {
	if s == nil {
		b.WriteByte('*')
		return
	}
	if s.Initial != "" {
		b.WriteByte('_')
	}
	b.WriteByte('*')
	for range s.Any {
		b.WriteString("_*")
	}
	if s.Final != "" {
		b.WriteByte('_')
	}
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
		*out = append(*out, n.Sub.Any...)
		if n.Sub.Final != "" {
			*out = append(*out, n.Sub.Final)
		}
	}
}
