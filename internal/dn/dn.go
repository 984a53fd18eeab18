// Package dn implements parsing, normalization and hierarchy operations for
// LDAP distinguished names (a practical subset of RFC 2253).
//
// A distinguished name (DN) identifies an entry in the Directory Information
// Tree (DIT). It is written leaf-first: the DN of an entry is its relative DN
// (RDN) followed by the DN of its parent, e.g.
//
//	cn=John Doe,ou=research,c=us,o=xyz
//
// The root of the DIT has the empty ("null") DN.
//
// DNs in this package are immutable after construction; all operations return
// new values. Attribute types are normalized to lower case and attribute
// values are compared case-insensitively, matching the caseIgnoreMatch rule
// that governs the vast majority of naming attributes.
//
// A DN is held as strings only — its rendering, and its normal form where
// that differs — with no slice of components: a held DN costs the collector
// one or two pointers, and every hierarchy operation reads the strings at
// unescaped commas.
package dn

import (
	"errors"
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// RDN is a single relative distinguished name component, e.g. "cn=John Doe".
// Multi-valued RDNs (a+b=c) are intentionally not supported; they are rare in
// practice and the paper's directory does not use them.
type RDN struct {
	// Attr is the normalized (lower-case) attribute type, e.g. "cn".
	Attr string
	// Value is the attribute value with RFC 2253 escapes resolved. Original
	// case is preserved for display; comparisons are case-insensitive.
	Value string
}

// String renders the RDN with RFC 2253 escaping applied to the value.
func (r RDN) String() string {
	return r.Attr + "=" + escapeValue(r.Value)
}

// DN is a parsed distinguished name. The zero value is the root ("null") DN.
//
// A DN is two strings and no other memory: s, its RFC 2253 rendering —
// lower-case attribute types, values in their own case and escaped by
// escapeValue, components leaf-first and joined by commas — and norm, its
// normal form, kept only when it differs from s (it is "" otherwise, which
// no non-root DN's normal form is). Every hierarchy operation walks the
// components of one of them at unescaped commas: an ancestor is a tail of
// both strings, never a rebuilt value.
type DN struct {
	s    string
	norm string
}

// Root is the null DN naming the root of the DIT.
var Root = DN{}

// ErrInvalidDN reports a malformed distinguished name string.
var ErrInvalidDN = errors.New("invalid DN")

// Parse parses an RFC 2253 style DN string. The empty string parses to the
// root DN. Supported escapes inside values: backslash followed by one of
// ",=+<>#;\\\"" or a space, and backslash followed by two hex digits.
//
// The string is walked once, component by component, and the rendering and
// the normal form are built as the walk goes, each only once it departs
// from the source. A DN spelled as its own rendering costs no allocation
// for it, and one that is also its own normal form — lower case,
// single-spaced, comma-separated, nothing escaped, as the DNs this system's
// servers put on the wire are — costs none at all: both are then s itself.
func Parse(s string) (DN, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return DN{}, nil
	}
	p := parser{src: s}
	for lo := 0; lo <= len(s); {
		hi := lo + componentLen(s[lo:])
		if hi > len(s) {
			return DN{}, fmt.Errorf("%w: trailing backslash in %q", ErrInvalidDN, s)
		}
		if err := p.rdn(lo, hi); err != nil {
			return DN{}, err
		}
		lo = hi + 1
	}
	return newDN(p.rend.result(s), p.norm.result(s)), nil
}

// newDN is the DN with rendering s and normal form norm.
func newDN(s, norm string) DN {
	if norm == s {
		norm = ""
	}
	return DN{s: s, norm: norm}
}

// MustParse is Parse that panics on error; intended for tests and constants.
func MustParse(s string) DN {
	d, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return d
}

// String renders the DN in RFC 2253 form with the original value case.
func (d DN) String() string { return d.s }

// AppendString appends the String form of d to b.
func (d DN) AppendString(b []byte) []byte { return append(b, d.s...) }

// Norm returns the normalized form (lower-cased attribute types and values,
// single spacing) suitable for use as a map key. Two DNs are Equal exactly
// when their Norm strings are identical.
func (d DN) Norm() string {
	if d.norm == "" {
		return d.s
	}
	return d.norm
}

// SameSpelling reports whether two DNs have identical presentation forms:
// d.String() == o.String(). Equal DNs can differ in spelling (value case,
// escaped spacing); spelling-sensitive callers (e.g. change classification
// deciding whether a rename is visible) use this.
func (d DN) SameSpelling(o DN) bool { return d.s == o.s }

// IsRoot reports whether d is the null DN.
func (d DN) IsRoot() bool { return d.s == "" }

// Depth returns the number of RDN components (0 for the root).
func (d DN) Depth() int { return components(d.s) }

// components counts the components of a rendering or a normal form.
func components(s string) int {
	if s == "" {
		return 0
	}
	n := 1
	for i := componentLen(s); i < len(s); i += 1 + componentLen(s[i+1:]) {
		n++
	}
	return n
}

// Leaf returns the leftmost (leaf) RDN. Calling Leaf on the root DN returns a
// zero RDN and false. Its parts are substrings of the rendering unless the
// value had to be escaped there.
func (d DN) Leaf() (RDN, bool) {
	if d.s == "" {
		return RDN{}, false
	}
	// A rendered attribute type holds no escape and no '='.
	comp := d.s[:componentLen(d.s)]
	eq := strings.IndexByte(comp, '=')
	return RDN{Attr: comp[:eq], Value: unescapeValue(comp[eq+1:])}, true
}

// Equal reports whether two DNs name the same entry.
func (d DN) Equal(o DN) bool { return d.Norm() == o.Norm() }

// Parent returns the DN with the leaf RDN removed. The parent of the root is
// the root itself with ok=false. The parent's strings are tails of d's: an
// ancestor's key is derived from the key, never rebuilt.
func (d DN) Parent() (DN, bool) {
	if d.s == "" {
		return DN{}, false
	}
	p := DN{s: tail(d.s)}
	if d.norm != "" {
		p.norm = tail(d.norm)
	}
	return p, true
}

// tail is a rendering or normal form less its first component; a separator
// inside a value is escaped in both.
func tail(s string) string {
	if i := componentLen(s); i < len(s) {
		return s[i+1:]
	}
	return ""
}

// Child returns the DN formed by prefixing an RDN to d. A child of a DN that
// is its own normal form, by a value that is too, is one string.
func (d DN) Child(r RDN) DN {
	attr := strings.ToLower(strings.TrimSpace(r.Attr))
	v := escapeValue(r.Value)
	c := DN{s: join(attr, v, d.s)}
	if n := strings.ToLower(foldSpaces(v)); n != v || d.norm != "" {
		c = newDN(c.s, join(attr, n, d.Norm()))
	}
	return c
}

// join prefixes the component attr=value to the rendering or normal form s.
func join(attr, value, s string) string {
	if s == "" {
		return attr + "=" + value
	}
	return attr + "=" + value + "," + s
}

// IsSuffix reports whether d is an ancestor-or-self of o; that is, whether
// the DIT region rooted at d contains o. The root DN is a suffix of every DN.
// This matches the paper's isSuffix(a, b): TRUE when a is an ancestor of b
// (we additionally treat a DN as a suffix of itself, which is what both the
// subtree-containment algorithm and naming-context resolution require).
// Components compare as Equal compares DNs, by normal form.
func (d DN) IsSuffix(o DN) bool {
	_, ok := below(d.Norm(), o.Norm())
	return ok
}

// below returns the components of normal form o above its ancestor-or-self
// a (o's leading components, "" when o is a), and whether a is one: a
// string suffix of o that starts a component, past an unescaped separator.
func below(a, o string) (string, bool) {
	switch {
	case a == "":
		return o, true
	case len(a) == len(o):
		return "", a == o
	case len(a) > len(o) || !strings.HasSuffix(o, a):
		return "", false
	}
	k := len(o) - len(a) - 1
	if o[k] != ',' {
		return "", false
	}
	// An odd run of backslashes before the comma escapes it.
	n := 0
	for i := k - 1; i >= 0 && o[i] == '\\'; i-- {
		n++
	}
	return o[:k], n%2 == 0
}

// IsParent reports whether d is the immediate parent of o.
func (d DN) IsParent(o DN) bool {
	rel, ok := below(d.Norm(), o.Norm())
	return ok && rel != "" && componentLen(rel) >= len(rel)
}

// RelativeDepth returns the number of levels from ancestor d down to o, and
// ok=false when d is not a suffix of o. RelativeDepth(d, d) is 0.
func (d DN) RelativeDepth(o DN) (int, bool) {
	rel, ok := below(d.Norm(), o.Norm())
	if !ok {
		return 0, false
	}
	return components(rel), true
}

// Rename returns the DN obtained by replacing the subtree prefix: o must be
// under oldBase; the portion of o below oldBase is re-rooted under newBase.
// Used to implement modifyDN with subtree moves.
func Rename(o, oldBase, newBase DN) (DN, error) {
	rel, ok := oldBase.RelativeDepth(o)
	if !ok {
		return DN{}, fmt.Errorf("%w: %q is not under %q", ErrInvalidDN, o.String(), oldBase.String())
	}
	if rel == 0 {
		return newBase, nil
	}
	r := DN{s: under(head(o.s, rel), newBase.s)}
	if o.norm != "" || newBase.norm != "" {
		r = newDN(r.s, under(head(o.Norm(), rel), newBase.Norm()))
	}
	return r, nil
}

// under places the leading components rel above the rendering or normal
// form s.
func under(rel, s string) string {
	if s == "" {
		return rel
	}
	return rel + "," + s
}

// head is the first n (> 0) components of a rendering or normal form.
func head(s string, n int) string {
	i := componentLen(s)
	for ; n > 1; n-- {
		i += 1 + componentLen(s[i+1:])
	}
	return s[:i]
}

// foldSpaces trims leading/trailing spaces and collapses internal runs of
// spaces, per the caseIgnoreMatch normalization rules. A string whose only
// white space is single spaces between words is returned as it is.
func foldSpaces(s string) string {
	gap := true // at the start, or right after a space
	for _, r := range s {
		if r == ' ' && gap || r != ' ' && unicode.IsSpace(r) {
			gap = true
			break
		}
		gap = r == ' '
	}
	if gap && s != "" {
		return strings.Join(strings.Fields(s), " ")
	}
	return s
}

// componentLen returns the length of the first component of s: the offset of
// its first unescaped separator (a comma, or the semicolon RFC 2253 allows as
// a legacy one), len(s) when there is none. A backslash that ends s escapes
// nothing; the result then exceeds len(s).
func componentLen(s string) int {
	i := 0
	for i < len(s) && s[i] != ',' && s[i] != ';' {
		if s[i] == '\\' {
			i++
		}
		i++
	}
	return i
}

// form is one of the two strings Parse builds. As long as every component
// read so far is spelled in the source exactly as in the form nothing is
// written: the form is then the source itself.
type form struct {
	b        strings.Builder
	diverged bool // the form is b, no longer a prefix of the source
}

func (f *form) result(src string) string {
	if f.diverged {
		return f.b.String()
	}
	return src
}

// begin readies the buffer for the component at src[lo:], separator
// included.
func (f *form) begin(src string, lo int) {
	if !f.diverged {
		f.diverged = true
		f.b.Grow(len(src))
		if lo > 0 {
			f.b.WriteString(src[:lo-1])
		}
	}
	if lo > 0 {
		f.b.WriteByte(',')
	}
}

// put extends the form by the component attr=val, writing only when it is
// not src[lo:hi] behind a comma (or at the start).
func (f *form) put(src string, lo, hi int, attr, val string) {
	comp := src[lo:hi]
	if !f.diverged && (lo == 0 || src[lo-1] == ',') && len(comp) == len(attr)+1+len(val) &&
		comp[:len(attr)] == attr && comp[len(attr)] == '=' && comp[len(attr)+1:] == val {
		return
	}
	f.begin(src, lo)
	f.b.WriteString(attr)
	f.b.WriteByte('=')
	f.b.WriteString(val)
}

// parser accumulates the rendering and the normal form of the DN it parses.
type parser struct {
	src        string
	rend, norm form
}

// rdn parses the "attr=value" component src[lo:hi] and extends both forms
// by it.
func (p *parser) rdn(lo, hi int) error {
	comp := p.src[lo:hi]
	eq := indexUnescaped(comp, '=')
	if eq < 0 {
		return fmt.Errorf("%w: missing '=' in RDN %q", ErrInvalidDN, comp)
	}
	attr, val := comp[:eq], comp[eq+1:]
	plain := plainBytes(attr, false) && plainBytes(val, true)
	if plain {
		// Printable ASCII, nothing escaped and nothing that prints escaped:
		// the value stands for itself and folds byte by byte.
		attr, val = strings.Trim(attr, " "), strings.Trim(val, " ")
	} else {
		attr = strings.ToLower(strings.TrimSpace(attr))
		val = unescapeValue(trimValueSpace(val))
	}
	if !validAttrType(attr) {
		return fmt.Errorf("%w: bad attribute type in RDN %q", ErrInvalidDN, comp)
	}
	if val == "" {
		return fmt.Errorf("%w: empty value in RDN %q", ErrInvalidDN, comp)
	}
	if !plain {
		r := escapeValue(val)
		p.rend.put(p.src, lo, hi, attr, r)
		p.norm.put(p.src, lo, hi, attr, strings.ToLower(foldSpaces(r)))
		return nil
	}
	// Spelled as its own rendering (or normal form): nothing trimmed, the
	// type (and the value) lower case and single-spaced, a comma in front.
	exact := len(attr)+1+len(val) == len(comp) && (lo == 0 || p.src[lo-1] == ',')
	if p.rend.diverged || !exact || !folded(attr) {
		p.rend.begin(p.src, lo)
		appendFolded(&p.rend.b, attr)
		p.rend.b.WriteByte('=')
		p.rend.b.WriteString(val)
	}
	if p.norm.diverged || !exact || !folded(comp) {
		p.norm.begin(p.src, lo)
		appendFolded(&p.norm.b, attr)
		p.norm.b.WriteByte('=')
		appendFolded(&p.norm.b, val)
	}
	return nil
}

// plainBytes reports whether s is printable ASCII and, for a value, free of
// every character of specialChars: escapeValue escapes those wherever they
// stand, and an unescaped one has a meaning to the parser or prints with a
// backslash.
func plainBytes(s string, value bool) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < ' ' || c > '~' {
			return false
		}
		if value {
			switch c {
			case ',', '=', '+', '<', '>', '#', ';', '"', '\\':
				return false
			}
		}
	}
	return true
}

// folded reports whether printable ASCII s is lower case and single-spaced.
func folded(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; 'A' <= c && c <= 'Z' || c == ' ' && i > 0 && s[i-1] == ' ' {
			return false
		}
	}
	return true
}

// appendFolded writes printable ASCII s, trimmed of spaces at both ends, in
// lower case with every run of spaces collapsed to one.
func appendFolded(b *strings.Builder, s string) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == ' ' && i > 0 && s[i-1] == ' ':
			continue
		case 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
}

// trimValueSpace trims unescaped leading and trailing spaces from a raw
// (still-escaped) attribute value. A trailing space preceded by an odd number
// of backslashes is escaped and must be kept.
func trimValueSpace(s string) string {
	s = strings.TrimLeft(s, " ")
	for len(s) > 0 && s[len(s)-1] == ' ' {
		// Count backslashes immediately before the final space.
		n := 0
		for i := len(s) - 2; i >= 0 && s[i] == '\\'; i-- {
			n++
		}
		if n%2 == 1 {
			break // escaped space: keep it
		}
		s = s[:len(s)-1]
	}
	return s
}

func indexUnescaped(s string, c byte) int {
	escaped := false
	for i := 0; i < len(s); i++ {
		switch {
		case escaped:
			escaped = false
		case s[i] == '\\':
			escaped = true
		case s[i] == c:
			return i
		}
	}
	return -1
}

// validAttrType accepts LDAP attribute descriptors: a letter followed by
// letters, digits, and hyphens, or a numeric OID.
func validAttrType(s string) bool {
	if s == "" {
		return false
	}
	if s[0] >= '0' && s[0] <= '9' {
		// numeric OID form: digits and dots
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c != '.' && (c < '0' || c > '9') {
				return false
			}
		}
		return true
	}
	if !isAlpha(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if !isAlpha(c) && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return true
}

func isAlpha(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

const specialChars = ",=+<>#;\"\\"

// escapeValue applies RFC 2253 escaping to an attribute value. White space
// at the ends of a value must survive the parser, which trims the DN string
// as a whole (escaped or not) and bare spaces around each value: a trailing
// white-space byte is hex-escaped, as is a leading one other than a space,
// which keeps its backslash.
func escapeValue(s string) string {
	if s == "" {
		return s
	}
	first, _ := utf8.DecodeRuneInString(s)
	last, _ := utf8.DecodeLastRuneInString(s)
	lead, trail := unicode.IsSpace(first), unicode.IsSpace(last)
	if !lead && !trail && s[0] != '#' && !strings.ContainsAny(s, specialChars) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case i == len(s)-1 && trail, i == 0 && lead && c != ' ':
			fmt.Fprintf(&b, "\\%02x", c)
			continue
		case i == 0 && (c == ' ' || c == '#'), strings.IndexByte(specialChars, c) >= 0:
			b.WriteByte('\\')
		}
		b.WriteByte(c)
	}
	return b.String()
}

// unescapeValue resolves RFC 2253 escapes in an attribute value. Every
// backslash has a byte after it: componentLen ends no component on one.
func unescapeValue(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		n := s[i+1]
		if isHex(n) && i+2 < len(s) && isHex(s[i+2]) {
			b.WriteByte(hexVal(n)<<4 | hexVal(s[i+2]))
			i += 2
			continue
		}
		b.WriteByte(n)
		i++
	}
	return b.String()
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
