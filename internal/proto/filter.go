package proto

import (
	"errors"
	"fmt"

	"filterdir/internal/ber"
	"filterdir/internal/filter"
)

// Filter choice tags per RFC 2251 section 4.5.1.
const (
	filterAnd        = 0
	filterOr         = 1
	filterNot        = 2
	filterEquality   = 3
	filterSubstrings = 4
	filterGreaterEq  = 5
	filterLessEq     = 6
	filterPresent    = 7
	filterApprox     = 8
)

// Substring component tags.
const (
	subInitial = 0
	subAny     = 1
	subFinal   = 2
)

var errNilFilter = errors.New("ldap: nil filter")

// encodeFilter appends the BER encoding of a filter. A nil filter encodes
// as (objectclass=*).
func encodeFilter(dst []byte, f *filter.Node) ([]byte, error) {
	if f == nil {
		return ber.AppendString(dst, ber.ClassContext, filterPresent, "objectclass"), nil
	}
	switch f.Op {
	case filter.True:
		// RFC 4526 absolute true: an and with no children.
		return ber.AppendTLV(dst, ber.ClassContext, true, filterAnd, nil), nil
	case filter.False:
		return ber.AppendTLV(dst, ber.ClassContext, true, filterOr, nil), nil
	case filter.And, filter.Or:
		tag := filterAnd
		if f.Op == filter.Or {
			tag = filterOr
		}
		var inner []byte
		var err error
		for _, c := range f.Children {
			inner, err = encodeFilter(inner, c)
			if err != nil {
				return nil, err
			}
		}
		return ber.AppendTLV(dst, ber.ClassContext, true, tag, inner), nil
	case filter.Not:
		if len(f.Children) == 0 {
			return nil, errNilFilter
		}
		inner, err := encodeFilter(nil, f.Children[0])
		if err != nil {
			return nil, err
		}
		return ber.AppendTLV(dst, ber.ClassContext, true, filterNot, inner), nil
	case filter.EQ, filter.GE, filter.LE:
		tag := filterEquality
		switch f.Op {
		case filter.GE:
			tag = filterGreaterEq
		case filter.LE:
			tag = filterLessEq
		}
		var ava []byte
		ava = ber.AppendString(ava, ber.ClassUniversal, ber.TagOctetString, f.Attr)
		ava = ber.AppendString(ava, ber.ClassUniversal, ber.TagOctetString, f.Value)
		out := ber.AppendTLV(dst, ber.ClassContext, true, tag, ava)
		if f.Neg {
			return wrapNot(dst, out)
		}
		return out, nil
	case filter.Present:
		out := ber.AppendString(dst, ber.ClassContext, filterPresent, f.Attr)
		if f.Neg {
			return wrapNot(dst, out)
		}
		return out, nil
	case filter.Substr:
		if f.Sub == nil {
			return nil, fmt.Errorf("ldap: substring filter without components")
		}
		var body []byte
		body = ber.AppendString(body, ber.ClassUniversal, ber.TagOctetString, f.Attr)
		var subs []byte
		if f.Sub.Initial != "" {
			subs = ber.AppendString(subs, ber.ClassContext, subInitial, f.Sub.Initial)
		}
		for _, a := range f.Sub.Any {
			subs = ber.AppendString(subs, ber.ClassContext, subAny, a)
		}
		if f.Sub.Final != "" {
			subs = ber.AppendString(subs, ber.ClassContext, subFinal, f.Sub.Final)
		}
		body = ber.AppendSequence(body, subs)
		out := ber.AppendTLV(dst, ber.ClassContext, true, filterSubstrings, body)
		if f.Neg {
			return wrapNot(dst, out)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("ldap: cannot encode filter op %v", f.Op)
	}
}

// wrapNot rewraps the just-encoded element (appended to dst) inside a NOT.
func wrapNot(dst, encoded []byte) ([]byte, error) {
	inner := encoded[len(dst):]
	cp := append([]byte(nil), inner...)
	return ber.AppendTLV(dst, ber.ClassContext, true, filterNot, cp), nil
}

// maxFilterDepth bounds how deeply AND, OR and NOT may nest in a filter off
// the wire. The decoder, and every later pass over the tree (matching,
// normalisation, containment, String), recurses once per level, and a 16 MiB
// message holds millions of levels: enough to overflow any goroutine's stack,
// which kills the process rather than the one connection. The filters this
// system builds nest a few levels (a Table-1 template is one AND or OR over
// predicates; a tier's widened filter one OR over those), so 64 leaves ample
// room for hand-written queries while bounding each recursion at a few tens
// of KB of stack.
const maxFilterDepth = 64

// maxFilterNodes bounds how many elements (operators and predicates) a
// filter off the wire may hold. The depth bound does not bound width: a
// 16 MiB message holds an OR of a million presence predicates, which
// decoded into 146 MB of nodes and would then cost every later pass a
// million steps. The filters this system builds hold a handful of nodes
// (three for a Table-1 query or a benchmark spec), so 4096 is far above
// any of them and bounds a decoded filter at about half a megabyte.
const maxFilterNodes = 4096

var (
	errFilterTooDeep = fmt.Errorf("ldap filter: nested deeper than %d levels", maxFilterDepth)
	errFilterTooWide = fmt.Errorf("ldap filter: more than %d elements", maxFilterNodes)
)

// decodeFilter consumes one filter element, nested depth levels inside the
// search request's filter; *nodes counts the elements decoded so far.
func decodeFilter(rd *ber.Reader, depth int, nodes *int) (*filter.Node, error) {
	if depth > maxFilterDepth {
		return nil, errFilterTooDeep
	}
	if *nodes++; *nodes > maxFilterNodes {
		return nil, errFilterTooWide
	}
	h, content, err := rd.Read()
	if err != nil {
		return nil, fmt.Errorf("ldap filter: %w", err)
	}
	if h.Class != ber.ClassContext {
		return nil, fmt.Errorf("ldap filter: unexpected class %#x", h.Class)
	}
	switch h.Tag {
	case filterAnd, filterOr:
		inner := ber.NewReader(content)
		var children []*filter.Node
		for !inner.Empty() {
			c, err := decodeFilter(inner, depth+1, nodes)
			if err != nil {
				return nil, err
			}
			children = append(children, c)
		}
		if len(children) == 0 {
			if h.Tag == filterAnd {
				return &filter.Node{Op: filter.True}, nil
			}
			return &filter.Node{Op: filter.False}, nil
		}
		if h.Tag == filterAnd {
			return filter.NewAnd(children...), nil
		}
		return filter.NewOr(children...), nil
	case filterNot:
		inner := ber.NewReader(content)
		c, err := decodeFilter(inner, depth+1, nodes)
		if err != nil {
			return nil, err
		}
		return filter.NewNot(c), nil
	case filterEquality, filterGreaterEq, filterLessEq, filterApprox:
		inner := ber.NewReader(content)
		attr, err := inner.ReadString()
		if err != nil {
			return nil, err
		}
		value, err := inner.ReadString()
		if err != nil {
			return nil, err
		}
		switch h.Tag {
		case filterGreaterEq:
			return filter.NewGE(attr, value), nil
		case filterLessEq:
			return filter.NewLE(attr, value), nil
		default:
			return filter.NewEQ(attr, value), nil
		}
	case filterPresent:
		return filter.NewPresent(string(content)), nil
	case filterSubstrings:
		inner := ber.NewReader(content)
		attr, err := inner.ReadString()
		if err != nil {
			return nil, err
		}
		seq, err := inner.ReadSequence()
		if err != nil {
			return nil, err
		}
		var sub filter.Substring
		for !seq.Empty() {
			ch, cc, err := seq.Read()
			if err != nil {
				return nil, err
			}
			switch ch.Tag {
			case subInitial:
				sub.Initial = string(cc)
			case subAny:
				sub.Any = append(sub.Any, string(cc))
			case subFinal:
				sub.Final = string(cc)
			default:
				return nil, fmt.Errorf("ldap filter: bad substring tag %d", ch.Tag)
			}
		}
		return filter.NewSubstr(attr, sub), nil
	default:
		return nil, fmt.Errorf("ldap filter: unknown choice tag %d", h.Tag)
	}
}
