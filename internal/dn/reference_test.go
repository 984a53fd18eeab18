package dn

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"filterdir/internal/dn/dntest"
)

// The parser and normaliser Parse replaced, kept as they were: split on
// unescaped separators into copies, parse each copy, then normalise every
// RDN from scratch with Fields/Join/ToLower. The differential tests hold the
// single-pass parser to them on every input.

func refParse(s string) ([]RDN, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	parts, err := refSplitComponents(s)
	if err != nil {
		return nil, err
	}
	rdns := make([]RDN, 0, len(parts))
	for _, p := range parts {
		r, err := refParseRDN(p)
		if err != nil {
			return nil, err
		}
		rdns = append(rdns, r)
	}
	return rdns, nil
}

// refRender is the presentation form the reference gives its RDNs.
func refRender(rdns []RDN) string {
	parts := make([]string, len(rdns))
	for i, r := range rdns {
		parts[i] = r.String()
	}
	return strings.Join(parts, ",")
}

func refNormalize(rdns []RDN) string {
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
		b.WriteString(strings.ToLower(refFoldSpaces(escapeValue(r.Value))))
	}
	return b.String()
}

func refFoldSpaces(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

func refSplitComponents(s string) ([]string, error) {
	var parts []string
	var cur strings.Builder
	escaped := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case escaped:
			cur.WriteByte('\\')
			cur.WriteByte(c)
			escaped = false
		case c == '\\':
			escaped = true
		case c == ',' || c == ';':
			parts = append(parts, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if escaped {
		return nil, fmt.Errorf("%w: trailing backslash in %q", ErrInvalidDN, s)
	}
	parts = append(parts, cur.String())
	return parts, nil
}

func refParseRDN(s string) (RDN, error) {
	eq := indexUnescaped(s, '=')
	if eq < 0 {
		return RDN{}, fmt.Errorf("%w: missing '=' in RDN %q", ErrInvalidDN, s)
	}
	attr := strings.ToLower(strings.TrimSpace(s[:eq]))
	if attr == "" || !validAttrType(attr) {
		return RDN{}, fmt.Errorf("%w: bad attribute type in RDN %q", ErrInvalidDN, s)
	}
	val, err := refUnescapeValue(trimValueSpace(s[eq+1:]))
	if err != nil {
		return RDN{}, fmt.Errorf("%w: bad value in RDN %q: %v", ErrInvalidDN, s, err)
	}
	if val == "" {
		return RDN{}, fmt.Errorf("%w: empty value in RDN %q", ErrInvalidDN, s)
	}
	return RDN{Attr: attr, Value: val}, nil
}

func refUnescapeValue(s string) (string, error) {
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
		if i+1 >= len(s) {
			return "", errors.New("trailing backslash")
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
	return b.String(), nil
}

// checkAgainstReference parses s both ways and requires the same verdict,
// normal form, presentation form and RDNs, and that every ancestor's derived
// normal form and presentation form are the ones the reference builds from
// its RDNs.
func checkAgainstReference(t *testing.T, s string) {
	t.Helper()
	got, err := Parse(s)
	want, refErr := refParse(s)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("Parse(%q): err = %v, reference err = %v", s, err, refErr)
	}
	if err != nil {
		if !errors.Is(err, ErrInvalidDN) {
			t.Fatalf("Parse(%q): error %v is not ErrInvalidDN", s, err)
		}
		return
	}
	if ref := refNormalize(want); got.Norm() != ref {
		t.Fatalf("Parse(%q): Norm = %q, reference %q", s, got.Norm(), ref)
	}
	if ref := refRender(want); got.String() != ref {
		t.Fatalf("Parse(%q): String = %q, reference %q", s, got.String(), ref)
	}
	if rdns := got.RDNs(); got.Depth() != len(want) || fmt.Sprint(rdns) != fmt.Sprint(want) {
		t.Fatalf("Parse(%q): RDNs = %q, reference %q", s, rdns, want)
	}
	i := 1
	for d, ok := got.Parent(); ok; d, ok = d.Parent() {
		if ref := refNormalize(want[i:]); d.Norm() != ref || d.String() != refRender(want[i:]) {
			t.Fatalf("Parse(%q): ancestor %q has Norm %q, reference %q", s, d.String(), d.Norm(), ref)
		}
		if rel, ok := d.RelativeDepth(got); !ok || rel != i || !d.IsSuffix(got) || d.IsParent(got) != (i == 1) {
			t.Fatalf("Parse(%q): ancestor %q at relative depth %d, %v", s, d.String(), rel, ok)
		}
		i++
	}
}

func TestParseMatchesReference(t *testing.T) {
	for _, s := range dntest.Corpus {
		checkAgainstReference(t, s)
	}
}

func TestFoldSpacesMatchesReference(t *testing.T) {
	for _, s := range []string{"", " ", "a", " a", "a ", "a b", "a  b", "a\tb", "a\u00a0b", "a\u2003b",
		"\xa0", "a \xff b", "é è", "a b c  "} {
		if got, want := foldSpaces(s), refFoldSpaces(s); got != want {
			t.Errorf("foldSpaces(%q) = %q, reference %q", s, got, want)
		}
	}
}

// RDNs returns the leaf-first RDN components, read off the ancestor chain.
func (d DN) RDNs() []RDN {
	var out []RDN
	for r, ok := d.Leaf(); ok; r, ok = d.Leaf() {
		out = append(out, r)
		d, _ = d.Parent()
	}
	return out
}
