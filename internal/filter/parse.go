package filter

import (
	"errors"
	"fmt"
	"strings"
)

// ErrInvalidFilter reports a malformed RFC 2254 filter string.
var ErrInvalidFilter = errors.New("invalid filter")

// Parse parses an RFC 2254 filter string such as
// (&(objectclass=inetOrgPerson)(departmentNumber=240*)). The approximate
// match operator "~=" is accepted and treated as equality. (&) parses to the
// absolute-true filter and (|) to absolute-false (RFC 4526).
func Parse(s string) (*Node, error) {
	p := &parser{s: strings.TrimSpace(s)}
	n, err := p.parseFilter()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.s) {
		return nil, fmt.Errorf("%w: trailing data at offset %d in %q", ErrInvalidFilter, p.pos, p.s)
	}
	return n, nil
}

type parser struct {
	s   string
	pos int
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("%w: %s at offset %d in %q",
		ErrInvalidFilter, fmt.Sprintf(format, args...), p.pos, p.s)
}

func (p *parser) peek() (byte, bool) {
	if p.pos >= len(p.s) {
		return 0, false
	}
	return p.s[p.pos], true
}

func (p *parser) expect(c byte) error {
	if got, ok := p.peek(); !ok || got != c {
		return p.errf("expected %q", string(c))
	}
	p.pos++
	return nil
}

func (p *parser) parseFilter() (*Node, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	c, ok := p.peek()
	if !ok {
		return nil, p.errf("unexpected end of input")
	}
	var n *Node
	var err error
	switch c {
	case '&':
		p.pos++
		n, err = p.parseSet(And)
	case '|':
		p.pos++
		n, err = p.parseSet(Or)
	case '!':
		p.pos++
		var child *Node
		child, err = p.parseFilter()
		if err == nil {
			n = NewNot(child)
		}
	default:
		n, err = p.parseSimple()
	}
	if err != nil {
		return nil, err
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return n, nil
}

// parseSet parses the children of an AND/OR set. Empty sets produce the
// RFC 4526 constants: (&) is TRUE, (|) is FALSE.
func (p *parser) parseSet(op Op) (*Node, error) {
	var children []*Node
	for {
		c, ok := p.peek()
		if !ok {
			return nil, p.errf("unterminated filter set")
		}
		if c == ')' {
			break
		}
		child, err := p.parseFilter()
		if err != nil {
			return nil, err
		}
		children = append(children, child)
	}
	if len(children) == 0 {
		if op == And {
			return &Node{Op: True}, nil
		}
		return &Node{Op: False}, nil
	}
	return &Node{Op: op, Children: children}, nil
}

// parseSimple parses attr OP value up to the closing parenthesis.
func (p *parser) parseSimple() (*Node, error) {
	start := p.pos
	for {
		c, ok := p.peek()
		if !ok {
			return nil, p.errf("unterminated predicate")
		}
		if c == '=' || c == '>' || c == '<' || c == '~' {
			break
		}
		if c == '(' || c == ')' {
			return nil, p.errf("unexpected %q in attribute type", string(c))
		}
		p.pos++
	}
	attr := strings.ToLower(strings.TrimSpace(p.s[start:p.pos]))
	if attr == "" {
		return nil, p.errf("empty attribute type")
	}
	if strings.ContainsAny(attr[:1], "&|!") { // "( !=x)" would print as a negation
		return nil, p.errf("attribute type %q starts with an operator", attr)
	}

	var op Op
	switch p.s[p.pos] {
	case '=':
		op = EQ
		p.pos++
	case '>', '<', '~':
		kind := p.s[p.pos]
		p.pos++
		if err := p.expect('='); err != nil {
			return nil, err
		}
		switch kind {
		case '>':
			op = GE
		case '<':
			op = LE
		default:
			op = EQ // approx treated as equality
		}
	}

	raw, err := p.scanValue()
	if err != nil {
		return nil, err
	}
	if op != EQ {
		v, err := unescapeAssertion(raw)
		if err != nil {
			return nil, p.errf("bad assertion value: %v", err)
		}
		if strings.Contains(raw, "*") {
			return nil, p.errf("wildcard not allowed with ordering match")
		}
		return &Node{Op: op, Attr: attr, Value: v}, nil
	}
	// Equality family: presence, substring, or plain equality.
	if raw == "*" {
		return &Node{Op: Present, Attr: attr}, nil
	}
	if strings.Contains(raw, "*") {
		sub, err := parseSubstring(raw)
		if err != nil {
			return nil, p.errf("bad substring: %v", err)
		}
		return &Node{Op: Substr, Attr: attr, Sub: sub}, nil
	}
	v, err := unescapeAssertion(raw)
	if err != nil {
		return nil, p.errf("bad assertion value: %v", err)
	}
	return &Node{Op: EQ, Attr: attr, Value: v}, nil
}

// scanValue reads the raw (still-escaped) assertion value up to the closing
// parenthesis of the predicate.
func (p *parser) scanValue() (string, error) {
	start := p.pos
	for {
		c, ok := p.peek()
		if !ok {
			return "", p.errf("unterminated assertion value")
		}
		if c == ')' {
			return p.s[start:p.pos], nil
		}
		if c == '(' {
			return "", p.errf("unescaped '(' in assertion value")
		}
		if c == '\\' {
			// RFC 2254 escape: backslash plus two hex digits.
			if p.pos+2 >= len(p.s) || !isHex(p.s[p.pos+1]) || !isHex(p.s[p.pos+2]) {
				return "", p.errf("bad escape sequence")
			}
			p.pos += 3
			continue
		}
		p.pos++
	}
}

// parseSubstring splits a raw substring assertion on unescaped stars.
func parseSubstring(raw string) (*Substring, error) {
	parts := strings.Split(raw, "*")
	if len(parts) < 2 {
		return nil, errors.New("no wildcard")
	}
	out := make([]string, len(parts))
	for i, part := range parts {
		v, err := unescapeAssertion(part)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	sub := &Substring{Initial: out[0], Final: out[len(out)-1]}
	for _, mid := range out[1 : len(out)-1] {
		if mid != "" {
			sub.Any = append(sub.Any, mid)
		}
	}
	if sub.Initial == "" && sub.Final == "" && len(sub.Any) == 0 {
		return nil, errors.New("substring with no components (use presence)")
	}
	return sub, nil
}

// unescapeAssertion resolves RFC 2254 \XX escapes.
func unescapeAssertion(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		if i+2 >= len(s) || !isHex(s[i+1]) || !isHex(s[i+2]) {
			return "", errors.New("bad escape sequence")
		}
		b.WriteByte(hexVal(s[i+1])<<4 | hexVal(s[i+2]))
		i += 2
	}
	return b.String(), nil
}

func isHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func hexVal(c byte) byte {
	switch {
	case c >= '0' && c <= '9':
		return c - '0'
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10
	default:
		return c - 'A' + 10
	}
}
