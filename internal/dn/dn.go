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

// Equal reports whether two RDNs are equivalent under case-insensitive value
// matching.
func (r RDN) Equal(o RDN) bool {
	return r.Attr == o.Attr && strings.EqualFold(foldSpaces(r.Value), foldSpaces(o.Value))
}

// SameSpelling reports whether two DNs have identical presentation forms —
// the allocation-free equivalent of d.String() == o.String(). Equal DNs can
// differ in spelling (value case, escaped spacing); spelling-sensitive
// callers (e.g. change classification deciding whether a rename is visible)
// use this on hot paths instead of rendering both strings.
func (d DN) SameSpelling(o DN) bool {
	if len(d.rdns) != len(o.rdns) {
		return false
	}
	for i, r := range d.rdns {
		if r.Attr != o.rdns[i].Attr || r.Value != o.rdns[i].Value {
			return false
		}
	}
	return true
}

// DN is a parsed distinguished name. The zero value is the root ("null") DN.
// RDNs are stored leaf-first, mirroring the string representation: for
// "cn=a,o=b", RDNs[0] is cn=a and RDNs[1] is o=b.
type DN struct {
	rdns []RDN
	// norm is the normalized form used for equality and map keys.
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
// The string is walked once, component by component, and the normal form is
// built as the walk goes: a DN costs its RDN slice plus one buffer for the
// normal form, and not even the buffer when the string already is its own
// normal form — lower case, single-spaced, comma-separated, nothing escaped —
// as the DNs this system's servers put on the wire are. RDN values are
// substrings of s wherever no escape had to be resolved.
func Parse(s string) (DN, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return DN{}, nil
	}
	p := parser{src: s}
	// An escaped separator is counted too: capacity, not length.
	rdns := make([]RDN, 0, 1+strings.Count(s, ",")+strings.Count(s, ";"))
	for lo := 0; lo <= len(s); {
		hi := lo + componentLen(s[lo:])
		if hi > len(s) {
			return DN{}, fmt.Errorf("%w: trailing backslash in %q", ErrInvalidDN, s)
		}
		r, err := p.rdn(lo, hi)
		if err != nil {
			return DN{}, err
		}
		rdns = append(rdns, r)
		lo = hi + 1
	}
	return DN{rdns: rdns, norm: p.norm()}, nil
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
func (d DN) String() string {
	if len(d.rdns) == 0 {
		return ""
	}
	var b strings.Builder
	for i, r := range d.rdns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(r.String())
	}
	return b.String()
}

// AppendString appends the String form of d to b. A writer that renders many
// DNs into one buffer calls it in place of String, which allocates its
// result; only a value that needs escaping still allocates.
func (d DN) AppendString(b []byte) []byte {
	for i, r := range d.rdns {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, r.Attr...)
		b = append(b, '=')
		b = append(b, escapeValue(r.Value)...)
	}
	return b
}

// Norm returns the normalized form (lower-cased attribute types and values,
// single spacing) suitable for use as a map key. Two DNs are Equal exactly
// when their Norm strings are identical.
func (d DN) Norm() string { return d.norm }

// IsRoot reports whether d is the null DN.
func (d DN) IsRoot() bool { return len(d.rdns) == 0 }

// Depth returns the number of RDN components (0 for the root).
func (d DN) Depth() int { return len(d.rdns) }

// Leaf returns the leftmost (leaf) RDN. Calling Leaf on the root DN returns a
// zero RDN and false.
func (d DN) Leaf() (RDN, bool) {
	if len(d.rdns) == 0 {
		return RDN{}, false
	}
	return d.rdns[0], true
}

// Equal reports whether two DNs name the same entry.
func (d DN) Equal(o DN) bool { return d.norm == o.norm }

// Parent returns the DN with the leaf RDN removed. The parent of the root is
// the root itself with ok=false. The parent shares d's RDNs and its normal
// form is the tail of d's: an ancestor's key is derived from the key, never
// rebuilt.
func (d DN) Parent() (DN, bool) {
	if len(d.rdns) == 0 {
		return DN{}, false
	}
	rest := d.rdns[1:]
	if len(rest) == 0 {
		return DN{rdns: rest}, true
	}
	// A separator inside the leaf's value is escaped in the normal form too.
	return DN{rdns: rest, norm: d.norm[componentLen(d.norm)+1:]}, true
}

// Child returns the DN formed by prefixing an RDN to d.
func (d DN) Child(r RDN) DN {
	rdns := make([]RDN, 0, len(d.rdns)+1)
	rdns = append(rdns, RDN{Attr: strings.ToLower(strings.TrimSpace(r.Attr)), Value: r.Value})
	rdns = append(rdns, d.rdns...)
	return DN{rdns: rdns, norm: normalize(rdns)}
}

// IsSuffix reports whether d is an ancestor-or-self of o; that is, whether
// the DIT region rooted at d contains o. The root DN is a suffix of every DN.
// This matches the paper's isSuffix(a, b): TRUE when a is an ancestor of b
// (we additionally treat a DN as a suffix of itself, which is what both the
// subtree-containment algorithm and naming-context resolution require).
func (d DN) IsSuffix(o DN) bool {
	n, m := len(d.rdns), len(o.rdns)
	if n > m {
		return false
	}
	// Compare the trailing n components; string suffix checks are unsafe in
	// the presence of escaped separators inside values.
	for i := 0; i < n; i++ {
		if !d.rdns[n-1-i].Equal(o.rdns[m-1-i]) {
			return false
		}
	}
	return true
}

// IsParent reports whether d is the immediate parent of o.
func (d DN) IsParent(o DN) bool {
	return len(o.rdns) == len(d.rdns)+1 && d.IsSuffix(o)
}

// RelativeDepth returns the number of levels from ancestor d down to o, and
// ok=false when d is not a suffix of o. RelativeDepth(d, d) is 0.
func (d DN) RelativeDepth(o DN) (int, bool) {
	if !d.IsSuffix(o) {
		return 0, false
	}
	return len(o.rdns) - len(d.rdns), true
}

// Rename returns the DN obtained by replacing the subtree prefix: o must be
// under oldBase; the portion of o below oldBase is re-rooted under newBase.
// Used to implement modifyDN with subtree moves.
func Rename(o, oldBase, newBase DN) (DN, error) {
	rel, ok := oldBase.RelativeDepth(o)
	if !ok {
		return DN{}, fmt.Errorf("%w: %q is not under %q", ErrInvalidDN, o.String(), oldBase.String())
	}
	rdns := make([]RDN, 0, rel+len(newBase.rdns))
	rdns = append(rdns, o.rdns[:rel]...)
	rdns = append(rdns, newBase.rdns...)
	return DN{rdns: rdns, norm: normalize(rdns)}, nil
}

// normalize produces the canonical comparison form.
func normalize(rdns []RDN) string {
	if len(rdns) == 0 {
		return ""
	}
	var b strings.Builder
	for i, r := range rdns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strings.ToLower(r.Attr))
		b.WriteByte('=')
		b.WriteString(normValue(r.Value))
	}
	return b.String()
}

// normValue is the normal form of one RDN value: printed with its escapes,
// single-spaced, lower case.
func normValue(v string) string {
	return strings.ToLower(foldSpaces(escapeValue(v)))
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

// parser accumulates the normal form of the DN it parses. As long as every
// component read so far is spelled exactly as its normal form nothing is
// written: the normal form is then the source itself.
type parser struct {
	src      string
	b        strings.Builder
	diverged bool // the normal form is b, no longer a prefix of src
}

func (p *parser) norm() string {
	if p.diverged {
		return p.b.String()
	}
	return p.src
}

// begin readies the buffer for the normal form of the component at src[lo:],
// separator included, and returns the offset that form starts at.
func (p *parser) begin(lo int) int {
	if !p.diverged {
		p.diverged = true
		p.b.Grow(len(p.src))
		if lo > 0 {
			p.b.WriteString(p.src[:lo-1])
		}
	}
	if lo > 0 {
		p.b.WriteByte(',')
	}
	return p.b.Len()
}

// rdn parses the "attr=value" component src[lo:hi] and extends the normal
// form by it.
func (p *parser) rdn(lo, hi int) (RDN, error) {
	comp := p.src[lo:hi]
	eq := indexUnescaped(comp, '=')
	if eq < 0 {
		return RDN{}, fmt.Errorf("%w: missing '=' in RDN %q", ErrInvalidDN, comp)
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
		return RDN{}, fmt.Errorf("%w: bad attribute type in RDN %q", ErrInvalidDN, comp)
	}
	if val == "" {
		return RDN{}, fmt.Errorf("%w: empty value in RDN %q", ErrInvalidDN, comp)
	}
	if !plain {
		p.begin(lo)
		p.b.WriteString(attr)
		p.b.WriteByte('=')
		p.b.WriteString(normValue(val))
		return RDN{Attr: attr, Value: val}, nil
	}
	// Spelled as its own normal form: nothing trimmed, nothing to fold, and
	// a comma in front.
	if !p.diverged && len(attr)+1+len(val) == len(comp) && folded(comp) && (lo == 0 || p.src[lo-1] == ',') {
		return RDN{Attr: attr, Value: val}, nil
	}
	at := p.begin(lo)
	appendFolded(&p.b, attr)
	p.b.WriteByte('=')
	appendFolded(&p.b, val)
	// The folded type is read back out of the buffer, not allocated again.
	return RDN{Attr: p.b.String()[at : at+len(attr)], Value: val}, nil
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
