package filter

import (
	"strings"
)

// String renders the filter in RFC 2254 form with required escaping. Negated
// predicates (from NNF) render as (!(...)).
func (n *Node) String() string {
	var b strings.Builder
	n.write(&b, false)
	return b.String()
}

// write renders n in RFC 2254 form with each assertion value, and each
// non-empty component of a substring assertion, escaped — or, for a
// template, written as its slot "_".
func (n *Node) write(b *strings.Builder, template bool) {
	if n == nil {
		return
	}
	if n.Neg {
		b.WriteString("(!")
		pos := *n
		pos.Neg = false
		pos.write(b, template)
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
			c.write(b, template)
		}
		b.WriteByte(')')
	case Not:
		b.WriteString("(!")
		if len(n.Children) > 0 {
			n.Children[0].write(b, template)
		}
		b.WriteByte(')')
	case EQ, GE, LE:
		b.WriteByte('(')
		b.WriteString(n.Attr)
		b.WriteString(relation(n.Op))
		if template {
			b.WriteByte('_')
		} else {
			b.WriteString(escapeAssertion(n.Value))
		}
		b.WriteByte(')')
	case Present:
		b.WriteByte('(')
		b.WriteString(n.Attr)
		b.WriteString("=*)")
	case Substr:
		b.WriteByte('(')
		b.WriteString(n.Attr)
		b.WriteByte('=')
		var s Substring
		if n.Sub != nil {
			s = *n.Sub
		}
		component := func(v string) {
			switch {
			case v == "":
			case template:
				b.WriteByte('_')
			default:
				b.WriteString(escapeAssertion(v))
			}
		}
		component(s.Initial)
		b.WriteByte('*')
		for _, a := range s.Any {
			component(a)
			b.WriteByte('*')
		}
		component(s.Final)
		b.WriteByte(')')
	case True:
		b.WriteString("(&)")
	case False:
		b.WriteString("(|)")
	}
}

// relation spells a comparison's relation.
func relation(op Op) string {
	switch op {
	case GE:
		return ">="
	case LE:
		return "<="
	}
	return "="
}

// escapeAssertion applies RFC 2254 escaping: '*', '(', ')', '\' and NUL are
// written as backslash plus two hex digits.
func escapeAssertion(s string) string {
	if !strings.ContainsAny(s, "*()\\\x00") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '*':
			b.WriteString(`\2a`)
		case '(':
			b.WriteString(`\28`)
		case ')':
			b.WriteString(`\29`)
		case '\\':
			b.WriteString(`\5c`)
		case 0:
			b.WriteString(`\00`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}
