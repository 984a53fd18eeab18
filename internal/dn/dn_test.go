package dn

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasic(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		depth   int
		str     string
		wantErr bool
	}{
		{name: "root", in: "", depth: 0, str: ""},
		{name: "root spaces", in: "   ", depth: 0, str: ""},
		{name: "single", in: "o=xyz", depth: 1, str: "o=xyz"},
		{name: "two", in: "c=us,o=xyz", depth: 2, str: "c=us,o=xyz"},
		{name: "person", in: "cn=John Doe,ou=research,c=us,o=xyz", depth: 4, str: "cn=John Doe,ou=research,c=us,o=xyz"},
		{name: "space around eq", in: "cn = John , o = xyz", depth: 2, str: "cn=John,o=xyz"},
		{name: "escaped comma", in: `cn=Doe\, John,o=xyz`, depth: 2, str: `cn=Doe\, John,o=xyz`},
		{name: "escaped hex", in: `cn=J\4fhn,o=xyz`, depth: 2, str: "cn=JOhn,o=xyz"},
		{name: "semicolon separator", in: "cn=a;o=b", depth: 2, str: "cn=a,o=b"},
		{name: "numeric oid attr", in: "2.5.4.3=val", depth: 1, str: "2.5.4.3=val"},
		{name: "missing equals", in: "cnJohn,o=xyz", wantErr: true},
		{name: "empty value", in: "cn=,o=xyz", wantErr: true},
		{name: "bad attr", in: "c n=x", wantErr: true},
		{name: "trailing backslash", in: `cn=x\`, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d, err := Parse(tt.in)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("Parse(%q) succeeded, want error", tt.in)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse(%q): %v", tt.in, err)
			}
			if d.Depth() != tt.depth {
				t.Errorf("depth = %d, want %d", d.Depth(), tt.depth)
			}
			if got := d.String(); got != tt.str {
				t.Errorf("String() = %q, want %q", got, tt.str)
			}
		})
	}
}

func TestEqualCaseInsensitive(t *testing.T) {
	a := MustParse("CN=John Doe,OU=Research,O=XYZ")
	b := MustParse("cn=john doe,ou=research,o=xyz")
	if !a.Equal(b) {
		t.Errorf("case-insensitive DNs should be equal: %q vs %q", a.Norm(), b.Norm())
	}
	c := MustParse("cn=john  doe,ou=research,o=xyz")
	if !a.Equal(c) {
		t.Errorf("internal space folding should make DNs equal: %q vs %q", a.Norm(), c.Norm())
	}
}

func TestIsSuffix(t *testing.T) {
	root := Root
	org := MustParse("o=xyz")
	country := MustParse("c=us,o=xyz")
	person := MustParse("cn=John Doe,ou=research,c=us,o=xyz")
	other := MustParse("c=in,o=xyz")

	tests := []struct {
		name string
		a, b DN
		want bool
	}{
		{"root suffix of all", root, person, true},
		{"root suffix of root", root, root, true},
		{"self suffix", country, country, true},
		{"ancestor", org, person, true},
		{"grandparent", country, person, true},
		{"not ancestor", other, person, false},
		{"descendant is not suffix", person, country, false},
		{"sibling", country, other, false},
	}
	for _, tt := range tests {
		if got := tt.a.IsSuffix(tt.b); got != tt.want {
			t.Errorf("%s: IsSuffix(%q, %q) = %v, want %v", tt.name, tt.a, tt.b, got, tt.want)
		}
	}
}

func TestIsSuffixEscapedSeparators(t *testing.T) {
	// A value containing ",o=y" must not be confused with the hierarchy.
	tricky := MustParse(`cn=x\,o=y`)
	base := MustParse("o=y")
	if base.IsSuffix(tricky) {
		t.Error("o=y must not be a suffix of the single-RDN DN cn=x\\,o=y")
	}
	if tricky.Depth() != 1 {
		t.Errorf("depth = %d, want 1", tricky.Depth())
	}
}

func TestParentChild(t *testing.T) {
	person := MustParse("cn=John Doe,ou=research,c=us,o=xyz")
	parent, ok := person.Parent()
	if !ok || parent.String() != "ou=research,c=us,o=xyz" {
		t.Fatalf("Parent = %q, ok=%v", parent, ok)
	}
	if !parent.IsParent(person) {
		t.Error("IsParent(parent, person) = false")
	}
	grand, _ := parent.Parent()
	if grand.IsParent(person) {
		t.Error("grandparent must not be IsParent")
	}
	back := parent.Child(RDN{Attr: "CN", Value: "John Doe"})
	if !back.Equal(person) {
		t.Errorf("Child round trip = %q, want %q", back, person)
	}
	if _, ok := Root.Parent(); ok {
		t.Error("root must not have a parent")
	}
	if _, ok := Root.Leaf(); ok {
		t.Error("root must not have a leaf RDN")
	}
	leaf, ok := person.Leaf()
	if !ok || leaf.Attr != "cn" || leaf.Value != "John Doe" {
		t.Errorf("Leaf = %+v, ok=%v", leaf, ok)
	}
}

func TestRelativeDepth(t *testing.T) {
	org := MustParse("o=xyz")
	person := MustParse("cn=a,ou=b,o=xyz")
	if d, ok := org.RelativeDepth(person); !ok || d != 2 {
		t.Errorf("RelativeDepth = %d, %v; want 2, true", d, ok)
	}
	if d, ok := person.RelativeDepth(person); !ok || d != 0 {
		t.Errorf("self RelativeDepth = %d, %v; want 0, true", d, ok)
	}
	if _, ok := person.RelativeDepth(org); ok {
		t.Error("RelativeDepth of non-descendant must report false")
	}
}

func TestRename(t *testing.T) {
	oldBase := MustParse("ou=research,o=xyz")
	newBase := MustParse("ou=labs,o=xyz")
	entry := MustParse("cn=a,ou=g1,ou=research,o=xyz")
	got, err := Rename(entry, oldBase, newBase)
	if err != nil {
		t.Fatal(err)
	}
	want := "cn=a,ou=g1,ou=labs,o=xyz"
	if got.String() != want {
		t.Errorf("Rename = %q, want %q", got, want)
	}
	// Renaming the base itself yields the new base.
	got, err = Rename(oldBase, oldBase, newBase)
	if err != nil || !got.Equal(newBase) {
		t.Errorf("Rename(base) = %q, %v; want %q", got, err, newBase)
	}
	if _, err := Rename(MustParse("cn=z,o=other"), oldBase, newBase); err == nil {
		t.Error("Rename outside base must error")
	}
}

func TestEscapingRoundTrip(t *testing.T) {
	values := []string{
		"plain",
		"has,comma",
		"has=equals",
		"has+plus",
		"#leading hash",
		" leading space",
		"trailing space ",
		`back\slash`,
		"quote\"inside",
		"semi;colon",
		"angle<bra>ckets",
	}
	for _, v := range values {
		d := New(RDN{Attr: "cn", Value: v}, RDN{Attr: "o", Value: "xyz"})
		rt, err := Parse(d.String())
		if err != nil {
			t.Errorf("Parse(%q): %v", d.String(), err)
			continue
		}
		if !rt.Equal(d) {
			t.Errorf("round trip of %q: got %q, want %q", v, rt.Norm(), d.Norm())
		}
		leaf, _ := rt.Leaf()
		if leaf.Value != v {
			t.Errorf("value round trip: got %q, want %q", leaf.Value, v)
		}
	}
}

// TestEdgeWhitespaceRoundTrip: white space other than a space at either end
// of a value prints hex-escaped, so the parser — which trims the DN string
// as a whole — gives the value back, wherever the RDN stands.
func TestEdgeWhitespaceRoundTrip(t *testing.T) {
	for _, tc := range []struct{ value, printed string }{
		{"\t", `\09`},
		{"\tx", `\09x`},
		{"x\t", `x\09`},
		{"\rx\n", `\0dx\0a`},
		{"\n", `\0a`},
		{"x\t ", "x\t" + `\20`},
		{" \tx", `\ ` + "\tx"},
		{" ", `\20`},
		{"x\u00a0", "x\xc2" + `\a0`},
		{"in\tside", "in\tside"},
	} {
		for _, d := range []DN{
			New(RDN{Attr: "cn", Value: tc.value}),
			New(RDN{Attr: "cn", Value: tc.value}, RDN{Attr: "o", Value: "xyz"}),
			New(RDN{Attr: "cn", Value: "a"}, RDN{Attr: "o", Value: tc.value}),
		} {
			if !strings.Contains(d.String(), "="+tc.printed) {
				t.Errorf("value %q printed as %q, want %q in it", tc.value, d.String(), tc.printed)
			}
			rt, err := Parse(d.String())
			if err != nil {
				t.Errorf("Parse(%q): %v", d.String(), err)
				continue
			}
			if rt.String() != d.String() || rt.Norm() != d.Norm() {
				t.Errorf("round trip of %q: got %q (norm %q), want %q (norm %q)",
					tc.value, rt.String(), rt.Norm(), d.String(), d.Norm())
			}
		}
	}
}

// printable ASCII value bytes for the property test, excluding nothing:
// escaping must handle every printable character.
func clampValue(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= ' ' && r < 127 {
			b.WriteRune(r)
		}
	}
	v := strings.TrimSpace(b.String())
	if v == "" {
		return "x"
	}
	return v
}

func TestQuickParseStringRoundTrip(t *testing.T) {
	f := func(raw1, raw2 string) bool {
		v1, v2 := clampValue(raw1), clampValue(raw2)
		d := New(RDN{Attr: "cn", Value: v1}, RDN{Attr: "ou", Value: v2}, RDN{Attr: "o", Value: "xyz"})
		rt, err := Parse(d.String())
		if err != nil {
			t.Logf("parse error for %q: %v", d.String(), err)
			return false
		}
		return rt.Equal(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickSuffixTransitivity(t *testing.T) {
	// If a is a suffix of b and b is a suffix of c then a is a suffix of c.
	f := func(n1, n2, n3 uint8) bool {
		mk := func(n uint8) DN {
			d := Root
			for i := 0; i < int(n%6); i++ {
				d = d.Child(RDN{Attr: "ou", Value: strings.Repeat("x", i+1)})
			}
			return d
		}
		a, b := mk(n1), mk(n2)
		c := b
		for i := 0; i < int(n3%4); i++ {
			c = c.Child(RDN{Attr: "cn", Value: "leaf"})
		}
		if a.IsSuffix(b) && b.IsSuffix(c) && !a.IsSuffix(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNormStability(t *testing.T) {
	d1 := MustParse("CN=A B,o=XYZ")
	d2 := New(RDN{Attr: "cn", Value: "a  b"}, RDN{Attr: "O", Value: "xyz"})
	if d1.Norm() != d2.Norm() {
		t.Errorf("Norm mismatch: %q vs %q", d1.Norm(), d2.Norm())
	}
}

func BenchmarkParse(b *testing.B) {
	s := "cn=John Doe,ou=research,c=us,o=xyz"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIsSuffix(b *testing.B) {
	base := MustParse("c=us,o=xyz")
	person := MustParse("cn=John Doe,ou=research,c=us,o=xyz")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !base.IsSuffix(person) {
			b.Fatal("expected suffix")
		}
	}
}

func TestSameSpelling(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"cn=Ann,o=xyz", "cn=Ann,o=xyz", true},
		{"cn=Ann,o=xyz", "cn=ann,o=xyz", false}, // Equal, but spelled differently
		{"cn=Ann,o=xyz", "cn=Ann,o=abc", false},
		{"cn=Ann,o=xyz", "cn=Ann", false},
		{"", "", true},
		{"", "o=xyz", false},
	}
	for _, tc := range cases {
		a, b := MustParse(tc.a), MustParse(tc.b)
		if got := a.SameSpelling(b); got != tc.want {
			t.Errorf("SameSpelling(%q, %q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		// SameSpelling is exactly String-equality, allocation-free.
		if got, strEq := a.SameSpelling(b), a.String() == b.String(); got != strEq {
			t.Errorf("SameSpelling(%q, %q) = %v disagrees with String comparison %v",
				tc.a, tc.b, got, strEq)
		}
	}
}

// TestParseAllocs gates what a DN costs the ingest path. A Table-1 employee
// DN as a server of this system writes it is its own normal form: the parse
// is the RDN slice and nothing else. One that needs folding adds the buffer
// the normal form is built in, in which the folded attribute types live too.
func TestParseAllocs(t *testing.T) {
	var sink DN
	for _, tc := range []struct {
		name, dn string
		max      float64
	}{
		{"normal", "cn=emp us 17,c=us,o=xyz", 1},
		{"folded", "CN=Emp US 17, C=US, O=xyz", 2},
	} {
		allocs := testing.AllocsPerRun(200, func() { sink, _ = Parse(tc.dn) })
		if sink.Depth() != 3 {
			t.Fatalf("%s: parse of %q failed", tc.name, tc.dn)
		}
		t.Logf("dn.Parse (%s): %.0f allocations", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("Parse(%q) allocates %.0f times, gate is %.0f", tc.dn, allocs, tc.max)
		}
	}
}

// TestParentAllocs: an ancestor is a view of its descendant — shared RDNs,
// the tail of the normal form — at every level, whatever the spelling.
func TestParentAllocs(t *testing.T) {
	for _, s := range []string{"cn=emp us 17,c=us,o=xyz", "CN=Smith\\, John, OU=R\\;D ,O=xyz"} {
		d := MustParse(s)
		var depth int
		allocs := testing.AllocsPerRun(200, func() {
			depth = 0
			for p, ok := d.Parent(); ok; p, ok = p.Parent() {
				depth++
			}
		})
		if depth != 3 {
			t.Fatalf("%q: walked %d levels to the root, want 3", s, depth)
		}
		t.Logf("dn.Parent (%q): %.0f allocations for the whole ancestor chain", s, allocs)
		if allocs != 0 {
			t.Errorf("walking the ancestors of %q allocates %.0f times, gate is 0", s, allocs)
		}
	}
}

// New builds a DN from leaf-first RDNs. Attribute types are normalized to
// lower case.
func New(rdns ...RDN) DN {
	if len(rdns) == 0 {
		return DN{}
	}
	cp := make([]RDN, len(rdns))
	for i, r := range rdns {
		cp[i] = RDN{Attr: strings.ToLower(strings.TrimSpace(r.Attr)), Value: r.Value}
	}
	return DN{rdns: cp, norm: normalize(cp)}
}
