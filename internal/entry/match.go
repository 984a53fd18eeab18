package entry

import (
	"bytes"
	"strings"
	"unicode"
	"unicode/utf8"
)

// --- Matching rules -------------------------------------------------------
//
// The tree has one caseIgnoreMatch, and NormValue defines it: two values
// match when their normal forms are equal, one orders before another as its
// normal form does bytewise, and a substring assertion holds when its
// components' normal forms occur in the value's. Only index keys need the
// normal form itself. Every comparison below reads both operands in place —
// an ASCII byte loop for the common case, then a rune-by-rune walk of the
// normal form (normReader) — and a substring search that needs the form as
// bytes builds it in a stack buffer. Filter evaluation, entry value sets and
// containment all compare through these functions, so none of them builds
// a string and none can disagree with an index.

// NormValue normalizes an assertion or attribute value for matching:
// case-folded with surrounding space trimmed and internal runs collapsed. A
// value already in that form — most stored values are — is returned as it is.
func NormValue(s string) string {
	if isNormValue(s) {
		return s
	}
	return strings.ToLower(strings.Join(strings.Fields(s), " "))
}

// isNormValue reports whether NormValue has nothing to change in s: valid
// UTF-8 in lower case whose only white space is single spaces between words.
func isNormValue(s string) bool {
	gap := true // at the start, or right after a space
	for _, r := range s {
		switch {
		case r == ' ' && gap, r != ' ' && unicode.IsSpace(r), r != unicode.ToLower(r), r == utf8.RuneError:
			return false
		}
		gap = r == ' '
	}
	return !gap || s == ""
}

// EqualValues applies the caseIgnoreMatch equality rule: NormValue(a) ==
// NormValue(b), decided without building either.
func EqualValues(a, b string) bool {
	return a == b || compareNorm(a, b) == 0
}

// MatchSubstring applies the caseIgnoreSubstringsMatch rule. The pattern is
// given as initial / any / final components per RFC 2254: initial must prefix
// the value, each any component must occur in order, final must suffix the
// remainder. Empty components are skipped.
func MatchSubstring(value, initial string, any []string, final string) bool {
	if len(any) == 0 && final == "" {
		return HasPrefixValue(value, initial)
	}
	var vbuf, pbuf [normBuf]byte
	v := appendNorm(vbuf[:0], value)
	if initial != "" {
		p := appendNorm(pbuf[:0], initial)
		if !bytes.HasPrefix(v, p) {
			return false
		}
		v = v[len(p):]
	}
	for _, a := range any {
		if a == "" {
			continue
		}
		p := appendNorm(pbuf[:0], a)
		i := bytes.Index(v, p)
		if i < 0 {
			return false
		}
		v = v[i+len(p):]
	}
	return final == "" || bytes.HasSuffix(v, appendNorm(pbuf[:0], final))
}

// HasPrefixValue reports whether NormValue(p) is a prefix of NormValue(v),
// reading both in place.
func HasPrefixValue(v, p string) bool {
	i, cmp := asciiRun(v, p)
	if cmp != 0 {
		return false
	}
	rv, rp := normReader{v, i}, normReader{p, i}
	for {
		c := rp.next()
		if c < 0 {
			return true
		}
		if rv.next() != c {
			return false
		}
	}
}

// HasSuffixValue reports whether NormValue(p) is a suffix of NormValue(v).
func HasSuffixValue(v, p string) bool {
	var vbuf, pbuf [normBuf]byte
	return bytes.HasSuffix(appendNorm(vbuf[:0], v), appendNorm(pbuf[:0], p))
}

// ContainsValue reports whether NormValue(p) occurs in NormValue(v).
func ContainsValue(v, p string) bool {
	var vbuf, pbuf [normBuf]byte
	return bytes.Contains(appendNorm(vbuf[:0], v), appendNorm(pbuf[:0], p))
}

// normBuf sizes the stack buffers a substring search normalizes into: longer
// than the values and patterns of the directory's schema, so a longer one
// (which then spills to the heap) is the exception.
const normBuf = 128

// compareNorm orders NormValue(a) against NormValue(b) bytewise — -1, 0 or
// 1 — without building either. Bytewise order on UTF-8 is code point order,
// so the rune-by-rune walk gives the same answer.
func compareNorm(a, b string) int {
	i, cmp := asciiRun(a, b)
	if cmp != 0 || i == len(a) && i == len(b) {
		return cmp
	}
	ra, rb := normReader{a, i}, normReader{b, i}
	for {
		x, y := ra.next(), rb.next()
		if x != y {
			if x < y { // the end (-1) orders before any rune
				return -1
			}
			return 1
		}
		if x < 0 {
			return 0
		}
	}
}

// asciiRun walks a and b together over the common case: ASCII words, and
// single spaces before a word at the same offset in both (each normal form
// then has a space there, or neither has, at offset 0). It returns the
// offset where that case ends; up to it the two normal forms agree. When
// the walk ends at two word bytes that differ in lower case, cmp orders them
// and decides the comparison; otherwise cmp is 0 and a normReader at the
// offset takes over. That offset is 0 or follows a word byte in both
// operands, which is where a normReader may start.
func asciiRun(a, b string) (i, cmp int) {
	n := min(len(a), len(b))
	for ; i < n; i++ {
		x, y := a[i], b[i]
		if !word(x) || !word(y) {
			if x == ' ' && y == ' ' && i+1 < n && word(a[i+1]) && word(b[i+1]) {
				continue
			}
			return i, 0
		}
		if x, y = lower(x), lower(y); x != y {
			if x < y {
				return i, -1
			}
			return i, 1
		}
	}
	return i, 0
}

// word reports whether c is an ASCII byte that NormValue keeps, up to case:
// not white space, not a control byte, not part of a multi-byte rune.
func word(c byte) bool { return ' ' < c && c < utf8.RuneSelf }

func lower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// normReader yields the runes of NormValue(s) from byte offset i on, one at
// a time. It must start at offset 0 or right after a non-space rune.
type normReader struct {
	s string
	i int
}

// next returns the next rune of the normal form, or -1 at its end. Runes are
// lower-cased one by one and an invalid UTF-8 byte reads as U+FFFD, as in
// strings.ToLower; a run of white space reads as one ' ' unless it starts or
// ends the value, as in strings.Fields and Join. The reader consumes a run
// whole, so a run starting past offset 0 always follows a word.
func (r *normReader) next() rune {
	if r.i >= len(r.s) {
		return -1
	}
	if c := r.s[r.i]; word(c) {
		r.i++
		return rune(lower(c))
	}
	c, w := utf8.DecodeRuneInString(r.s[r.i:])
	if !unicode.IsSpace(c) {
		r.i += w
		return unicode.ToLower(c)
	}
	start := r.i
	for r.i += w; r.i < len(r.s); r.i += w {
		if c, w = utf8.DecodeRuneInString(r.s[r.i:]); !unicode.IsSpace(c) {
			break
		}
	}
	switch {
	case r.i == len(r.s):
		return -1
	case start == 0:
		return r.next()
	default:
		return ' '
	}
}

// appendNorm appends NormValue(s) to dst.
func appendNorm(dst []byte, s string) []byte {
	r := normReader{s: s}
	for c := r.next(); c >= 0; c = r.next() {
		dst = utf8.AppendRune(dst, c)
	}
	return dst
}
