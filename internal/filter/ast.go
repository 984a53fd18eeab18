// Package filter implements LDAP search filters per RFC 2254: parsing,
// printing, evaluation against entries, canonical normalization, templates
// (query prototypes with assertion values elided), negation normal form, and
// disjunctive normal form. These are the building blocks of the paper's
// query-containment machinery (internal/containment).
package filter

import (
	"errors"
	"strings"
)

// Op identifies the kind of a filter node.
type Op int

// Filter node kinds. And/Or/Not are boolean combinators; the remainder are
// simple predicates on a single attribute.
const (
	And Op = iota + 1
	Or
	Not
	EQ      // (attr=value) equality
	GE      // (attr>=value) greater-or-equal
	LE      // (attr<=value) less-or-equal
	Present // (attr=*)
	Substr  // (attr=initial*any*...*final)
	True    // (&) absolute true, RFC 4526
	False   // (|) absolute false, RFC 4526
)

func (o Op) String() string {
	switch o {
	case And:
		return "AND"
	case Or:
		return "OR"
	case Not:
		return "NOT"
	case EQ:
		return "EQ"
	case GE:
		return "GE"
	case LE:
		return "LE"
	case Present:
		return "PRESENT"
	case Substr:
		return "SUBSTR"
	case True:
		return "TRUE"
	case False:
		return "FALSE"
	default:
		return "INVALID"
	}
}

// Substring is the decomposition of a substring assertion
// initial*any1*any2*...*final. Empty components are absent.
type Substring struct {
	Initial string
	Any     []string
	Final   string
}

// clone returns a deep copy.
func (s *Substring) clone() *Substring {
	if s == nil {
		return nil
	}
	c := &Substring{Initial: s.Initial, Final: s.Final}
	c.Any = append(c.Any, s.Any...)
	return c
}

// Node is a filter AST node. Combinator nodes (And, Or, Not) use Children;
// predicate nodes use Attr plus Value or Sub. Neg marks a negated predicate
// in negation normal form (it is never produced by Parse, only by NNF).
type Node struct {
	Op       Op
	Children []*Node
	Attr     string // normalized lower-case attribute type
	Value    string // assertion value for EQ/GE/LE
	Sub      *Substring
	Neg      bool
}

// ErrTooComplex reports a normal-form expansion exceeding safe bounds.
var ErrTooComplex = errors.New("filter too complex")

// NewEQ builds an equality predicate.
func NewEQ(attr, value string) *Node {
	return &Node{Op: EQ, Attr: strings.ToLower(attr), Value: value}
}

// NewGE builds a greater-or-equal predicate.
func NewGE(attr, value string) *Node {
	return &Node{Op: GE, Attr: strings.ToLower(attr), Value: value}
}

// NewLE builds a less-or-equal predicate.
func NewLE(attr, value string) *Node {
	return &Node{Op: LE, Attr: strings.ToLower(attr), Value: value}
}

// NewPresent builds a presence predicate (attr=*).
func NewPresent(attr string) *Node {
	return &Node{Op: Present, Attr: strings.ToLower(attr)}
}

// NewSubstr builds a substring predicate.
func NewSubstr(attr string, sub Substring) *Node {
	return &Node{Op: Substr, Attr: strings.ToLower(attr), Sub: &sub}
}

// NewAnd conjoins filters.
func NewAnd(children ...*Node) *Node { return &Node{Op: And, Children: children} }

// NewOr disjoins filters.
func NewOr(children ...*Node) *Node { return &Node{Op: Or, Children: children} }

// NewNot negates a filter.
func NewNot(child *Node) *Node { return &Node{Op: Not, Children: []*Node{child}} }

// Clone returns a deep copy of the filter.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := &Node{Op: n.Op, Attr: n.Attr, Value: n.Value, Neg: n.Neg, Sub: n.Sub.clone()}
	for _, ch := range n.Children {
		c.Children = append(c.Children, ch.Clone())
	}
	return c
}

// IsPredicate reports whether the node is a simple predicate (not a
// combinator or constant).
func (n *Node) IsPredicate() bool {
	switch n.Op {
	case EQ, GE, LE, Present, Substr:
		return true
	default:
		return false
	}
}

// IsPositive reports whether the filter contains no NOT operators and no
// negated predicates. The paper's Propositions 2 and 3 apply to positive
// filters.
func (n *Node) IsPositive() bool {
	if n.Op == Not || n.Neg {
		return false
	}
	for _, c := range n.Children {
		if !c.IsPositive() {
			return false
		}
	}
	return true
}

// Predicates returns the predicate nodes in left-to-right order.
func (n *Node) Predicates() []*Node {
	var out []*Node
	n.walk(func(m *Node) {
		if m.IsPredicate() {
			out = append(out, m)
		}
	})
	return out
}

func (n *Node) walk(f func(*Node)) {
	if n == nil {
		return
	}
	f(n)
	for _, c := range n.Children {
		c.walk(f)
	}
}
