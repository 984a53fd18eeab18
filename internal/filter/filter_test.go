package filter

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"filterdir/internal/dn"
	"filterdir/internal/entry"
)

// mustParse is Parse for filters the test spells out: it panics on error.
func mustParse(s string) *Node {
	n, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return n
}

func TestParseValid(t *testing.T) {
	tests := []struct {
		in  string
		op  Op
		str string // expected canonical String(), "" means same as in
	}{
		{in: "(sn=Doe)", op: EQ},
		{in: "(objectclass=*)", op: Present},
		{in: "(age>=30)", op: GE},
		{in: "(age<=30)", op: LE},
		{in: "(sn~=doe)", op: EQ, str: "(sn=doe)"},
		{in: "(sn=smith*)", op: Substr},
		{in: "(sn=*smith)", op: Substr},
		{in: "(sn=s*mi*th)", op: Substr},
		{in: "(&(sn=Doe)(givenName=John))", op: And, str: "(&(sn=Doe)(givenname=John))"},
		{in: "(|(sn=Doe)(sn=Smith))", op: Or},
		{in: "(!(sn=Doe))", op: Not},
		{in: "(&(objectclass=inetOrgPerson)(departmentNumber=240*))", op: And, str: "(&(objectclass=inetOrgPerson)(departmentnumber=240*))"},
		{in: "(&)", op: True},
		{in: "(|)", op: False},
		{in: "(cn=a\\2ab)", op: EQ, str: "(cn=a\\2ab)"},
		{in: "(SN=Doe)", op: EQ, str: "(sn=Doe)"},
		{in: "(&(a=1)(|(b=2)(c=3)))", op: And},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			n, err := Parse(tt.in)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if n.Op != tt.op {
				t.Errorf("Op = %v, want %v", n.Op, tt.op)
			}
			want := tt.str
			if want == "" {
				want = tt.in
			}
			if got := n.String(); got != want {
				t.Errorf("String() = %q, want %q", got, want)
			}
		})
	}
}

func TestParseInvalid(t *testing.T) {
	bad := []string{
		"",
		"sn=Doe",
		"(sn=Doe",
		"(sn=Doe))",
		"((sn=Doe))",
		"(=x)",
		"(sn>30)",
		"(sn>=3*0)",
		"(!(sn=a)(sn=b))",
		"(&(sn=a)",
		"(sn=a\\zz)",
		"(sn=a(b)",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	filters := []string{
		"(sn=Doe)",
		"(&(sn=Doe)(givenName=John))",
		"(|(a=1)(b=2)(c=3))",
		"(!(&(a=1)(b=2)))",
		"(sn=smi*th*son)",
		"(serialNumber=04*)",
		"(cn=John \\28Jack\\29 Doe)",
		"(&(objectclass=inetOrgPerson)(departmentNumber=2406))",
	}
	for _, s := range filters {
		n, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		rt, err := Parse(n.String())
		if err != nil {
			t.Errorf("reparse of %q -> %q: %v", s, n.String(), err)
			continue
		}
		if rt.String() != n.String() {
			t.Errorf("round trip unstable: %q -> %q -> %q", s, n.String(), rt.String())
		}
	}
}

func testEntry() *entry.Entry {
	e := entry.New(dn.MustParse("cn=John Doe,ou=research,c=us,o=xyz"))
	e.Put("objectclass", "top", "person", "inetOrgPerson")
	e.Put("cn", "John Doe", "John M Doe")
	e.Put("sn", "Doe")
	e.Put("serialNumber", "0456")
	e.Put("departmentNumber", "2406")
	e.Put("age", "35")
	e.Put("mail", "john@us.xyz.com")
	return e
}

func TestMatches(t *testing.T) {
	e := testEntry()
	tests := []struct {
		f    string
		want bool
	}{
		{"(sn=Doe)", true},
		{"(sn=doe)", true}, // case-insensitive
		{"(sn=Smith)", false},
		{"(cn=John M Doe)", true}, // any value matches
		{"(objectclass=*)", true},
		{"(missing=*)", false},
		{"(age>=30)", true},
		{"(age>=40)", false},
		{"(age<=35)", true},
		{"(age<=34)", false},
		{"(serialNumber=04*)", true},
		{"(serialNumber=05*)", false},
		{"(serialNumber=*56)", true},
		{"(serialNumber=0*5*)", true},
		{"(mail=*@us.xyz.com)", true},
		{"(&(sn=Doe)(age>=30))", true},
		{"(&(sn=Doe)(age>=40))", false},
		{"(|(sn=Smith)(sn=Doe))", true},
		{"(|(sn=Smith)(sn=Jones))", false},
		{"(!(sn=Smith))", true},
		{"(!(sn=Doe))", false},
		{"(!(missing=x))", true},
		{"(&)", true},
		{"(|)", false},
		{"(&(objectclass=inetOrgPerson)(departmentNumber=240*))", true},
		{"(serialNumber>=0400)", true}, // integer-aware: 456 >= 400
		{"(serialNumber<=0100)", false},
	}
	for _, tt := range tests {
		n := mustParse(tt.f)
		if got := n.Matches(e); got != tt.want {
			t.Errorf("Matches(%s) = %v, want %v", tt.f, got, tt.want)
		}
	}
}

func TestNormalize(t *testing.T) {
	tests := []struct {
		in, want string
	}{
		{"(&(b=2)(a=1))", "(&(a=1)(b=2))"},
		{"(&(a=1)(&(b=2)(c=3)))", "(&(a=1)(b=2)(c=3))"},
		{"(|(a=1)(|(b=2)))", "(|(a=1)(b=2))"},
		{"(&(a=1)(a=1))", "(a=1)"},
		{"(!(!(a=1)))", "(a=1)"},
		{"(&(a=1)(&))", "(a=1)"},
		{"(|(a=1)(|))", "(a=1)"},
		{"(&(a=1)(|))", "(|)"},
		{"(|(a=1)(&))", "(&)"},
		{"(&(b=2)(a=1)(b=2))", "(&(a=1)(b=2))"},
	}
	for _, tt := range tests {
		got := mustParse(tt.in).Normalize().String()
		if got != tt.want {
			t.Errorf("Normalize(%s) = %s, want %s", tt.in, got, tt.want)
		}
	}
}

func TestNNF(t *testing.T) {
	e := testEntry()
	filters := []string{
		"(!(&(sn=Doe)(age>=30)))",
		"(!(|(sn=Doe)(sn=Smith)))",
		"(!(!(sn=Doe)))",
		"(&(!(sn=Smith))(age>=30))",
		"(!(&(a=1)(|(b=2)(!(c=3)))))",
	}
	for _, f := range filters {
		n := mustParse(f)
		nn := n.NNF()
		// NNF must contain no Not nodes.
		nn.walk(func(m *Node) {
			if m.Op == Not {
				t.Errorf("NNF(%s) contains NOT: %s", f, nn)
			}
		})
		if n.Matches(e) != nn.Matches(e) {
			t.Errorf("NNF(%s) changed semantics on test entry", f)
		}
	}
}

func TestDNF(t *testing.T) {
	n := mustParse("(&(|(a=1)(b=2))(|(c=3)(d=4)))")
	d, err := n.DNF()
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 4 {
		t.Fatalf("DNF conjunct count = %d, want 4", len(d))
	}
	for _, conj := range d {
		if len(conj) != 2 {
			t.Errorf("conjunct size = %d, want 2", len(conj))
		}
	}

	// False has empty DNF.
	d, err = mustParse("(|)").DNF()
	if err != nil || len(d) != 0 {
		t.Errorf("DNF(false) = %v, %v", d, err)
	}
	// True has one empty conjunct.
	d, err = mustParse("(&)").DNF()
	if err != nil || len(d) != 1 || len(d[0]) != 0 {
		t.Errorf("DNF(true) = %v, %v", d, err)
	}

	// Negation distributes.
	d, err = mustParse("(!(&(a=1)(b=2)))").DNF()
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 2 || !d[0][0].Negated || !d[1][0].Negated {
		t.Errorf("DNF of negated conjunction wrong: %v", d)
	}
}

func TestDNFTooComplex(t *testing.T) {
	// (|(a=1)(a=2)) ^ 13 under AND explodes past the cap.
	or := mustParse("(|(a=1)(a=2))")
	and := &Node{Op: And}
	for i := 0; i < 13; i++ {
		and.Children = append(and.Children, or.Clone())
	}
	if _, err := and.DNF(); !errors.Is(err, ErrTooComplex) {
		t.Errorf("expected ErrTooComplex, got %v", err)
	}
}

func TestDNFPreservesSemantics(t *testing.T) {
	e := testEntry()
	filters := []string{
		"(&(|(sn=Doe)(sn=Smith))(age>=30))",
		"(!(&(sn=Doe)(age>=40)))",
		"(|(&(a=1)(b=2))(sn=Doe))",
		"(&(objectclass=inetOrgPerson)(|(serialNumber=04*)(serialNumber=05*)))",
	}
	for _, f := range filters {
		n := mustParse(f)
		d, err := n.DNF()
		if err != nil {
			t.Fatalf("DNF(%s): %v", f, err)
		}
		// Evaluate DNF manually.
		got := false
		for _, conj := range d {
			all := true
			for _, lit := range conj {
				m := lit.Pred.Matches(e)
				if lit.Negated {
					m = !m
				}
				if !m {
					all = false
					break
				}
			}
			if all {
				got = true
				break
			}
		}
		if got != n.Matches(e) {
			t.Errorf("DNF(%s) evaluates to %v, filter evaluates to %v", f, got, n.Matches(e))
		}
	}
}

func TestTemplate(t *testing.T) {
	tests := []struct {
		in, want string
	}{
		{"(sn=Doe)", "(sn=_)"},
		{"(uid=jdoe)", "(uid=_)"},
		{"(&(cn=John)(ou=research))", "(&(cn=_)(ou=_))"},
		{"(&(sn=Doe)(givenName=John))", "(&(sn=_)(givenname=_))"},
		{"(sn=smi*)", "(sn=_*)"},
		{"(sn=*son)", "(sn=*_)"},
		{"(sn=s*mi*th)", "(sn=_*_*_)"},
		{"(objectclass=*)", "(objectclass=*)"},
		{"(age>=30)", "(age>=_)"},
		{"(!(sn=Doe))", "(!(sn=_))"},
		{"(serialNumber=04*)", "(serialnumber=_*)"},
	}
	for _, tt := range tests {
		got := mustParse(tt.in).Template()
		if got != tt.want {
			t.Errorf("Template(%s) = %s, want %s", tt.in, got, tt.want)
		}
	}
}

func TestTemplateGroupsPrototypes(t *testing.T) {
	// Queries from the same prototype share a template.
	a := mustParse("(&(dept=2406)(div=software))").Normalize().Template()
	b := mustParse("(&(div=hardware)(dept=11))").Normalize().Template()
	if a != b {
		t.Errorf("same-prototype queries differ: %q vs %q", a, b)
	}
	c := mustParse("(dept=2406)").Normalize().Template()
	if a == c {
		t.Error("different prototypes must not share a template")
	}
}

func TestSlotValues(t *testing.T) {
	n := mustParse("(&(sn=Doe)(age>=30)(mail=*@us.xyz.com))")
	got := n.SlotValues()
	want := []string{"Doe", "30", "@us.xyz.com"}
	if len(got) != len(want) {
		t.Fatalf("SlotValues = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("slot %d = %q, want %q", i, got[i], want[i])
		}
	}
	// Presence contributes no slots.
	if n := mustParse("(objectclass=*)"); len(n.SlotValues()) != 0 {
		t.Error("presence predicate must have no slots")
	}
	// Substring slots in order.
	sub := mustParse("(sn=a*b*c)")
	gotSub := sub.SlotValues()
	if len(gotSub) != 3 || gotSub[0] != "a" || gotSub[1] != "b" || gotSub[2] != "c" {
		t.Errorf("substring slots = %v", gotSub)
	}
}

func TestPredicates(t *testing.T) {
	n := mustParse("(&(sn=Doe)(|(age>=30)(sn=Smith))(objectclass=*))")
	if len(n.Predicates()) != 4 {
		t.Errorf("Predicates count = %d, want 4", len(n.Predicates()))
	}
}

func TestIsPositive(t *testing.T) {
	if !mustParse("(&(a=1)(b=2))").IsPositive() {
		t.Error("conjunction of predicates is positive")
	}
	if mustParse("(!(a=1))").IsPositive() {
		t.Error("negation is not positive")
	}
	if mustParse("(&(a=1)(!(b=2)))").IsPositive() {
		t.Error("nested negation is not positive")
	}
	nn := mustParse("(!(a=1))").NNF()
	if nn.IsPositive() {
		t.Error("NNF-negated predicate is not positive")
	}
}

// genValue produces a safe assertion value from arbitrary bytes.
func genValue(raw string) string {
	var b strings.Builder
	for _, r := range raw {
		if r > ' ' && r < 127 {
			b.WriteRune(r)
		}
	}
	if b.Len() == 0 {
		return "v"
	}
	return b.String()
}

func TestQuickParsePrintRoundTrip(t *testing.T) {
	f := func(a, b string, op uint8) bool {
		va, vb := genValue(a), genValue(b)
		var n *Node
		switch op % 5 {
		case 0:
			n = NewEQ("cn", va)
		case 1:
			n = NewAnd(NewEQ("sn", va), NewGE("age", vb))
		case 2:
			n = NewOr(NewEQ("sn", va), NewNot(NewEQ("cn", vb)))
		case 3:
			n = NewSubstr("sn", Substring{Initial: va, Final: vb})
		case 4:
			n = NewAnd(NewPresent("objectclass"), NewLE("age", va))
		}
		rt, err := Parse(n.String())
		if err != nil {
			t.Logf("reparse failed for %q: %v", n.String(), err)
			return false
		}
		return rt.String() == n.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickNormalizePreservesSemantics(t *testing.T) {
	e := testEntry()
	f := func(sel uint8, v1, v2 string) bool {
		a, b := genValue(v1), genValue(v2)
		cands := []*Node{
			NewAnd(NewEQ("sn", a), NewOr(NewEQ("cn", b), NewGE("age", "30"))),
			NewNot(NewAnd(NewEQ("sn", a), NewEQ("cn", b))),
			NewOr(NewAnd(NewEQ("sn", "Doe")), NewNot(NewNot(NewEQ("cn", a)))),
			NewAnd(NewEQ("sn", a), &Node{Op: True}),
			NewOr(NewEQ("sn", a), &Node{Op: False}),
		}
		n := cands[int(sel)%len(cands)]
		return n.Matches(e) == n.Normalize().Matches(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestQuickNNFPreservesSemantics(t *testing.T) {
	e := testEntry()
	f := func(sel uint8, v1 string) bool {
		a := genValue(v1)
		cands := []*Node{
			NewNot(NewAnd(NewEQ("sn", a), NewGE("age", "30"))),
			NewNot(NewOr(NewEQ("sn", a), NewNot(NewEQ("cn", "John Doe")))),
			NewAnd(NewNot(NewEQ("sn", a)), NewPresent("mail")),
		}
		n := cands[int(sel)%len(cands)]
		return n.Matches(e) == n.NNF().Matches(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func BenchmarkParse(b *testing.B) {
	s := "(&(objectclass=inetOrgPerson)(departmentNumber=240*)(age>=30))"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatches(b *testing.B) {
	e := testEntry()
	n := mustParse("(&(objectclass=inetOrgPerson)(serialNumber=04*)(age>=30))")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !n.Matches(e) {
			b.Fatal("expected match")
		}
	}
}

// TestMatchesAllocs gates what a master's filter scan costs per entry: the
// spec filters of the four benchmark workloads (serial prefixes, department
// conjunctions, the search-mix replica's suffix and presence filters) and the
// four Table-1 query shapes, against a Table-1 employee — whose objectClass
// values are mixed-case and whose cn has spaces, so no operand is its own
// normal form — and a department entry. Matching reads values in place and
// compares them in place: nothing is copied or normalized.
func TestMatchesAllocs(t *testing.T) {
	emp := entry.New(dn.MustParse("cn=emp us 17,c=us,o=xyz"))
	emp.Put("objectClass", "top", "person", "organizationalPerson", "inetOrgPerson")
	emp.Put("cn", "emp us 17")
	emp.Put("sn", "sn17")
	emp.Put("serialNumber", "100030017")
	emp.Put("uid", "u1a2b3c4d")
	emp.Put("mail", "u1a2b3c4d@us.xyz.com")
	emp.Put("departmentNumber", "17")
	emp.Put("telephoneNumber", "123-4567")
	dept := entry.New(dn.MustParse("dept=1003,ou=div00,ou=divisions,o=xyz"))
	dept.Put("objectclass", "department")
	dept.Put("dept", "1003")
	dept.Put("div", "div00")
	dept.Put("description", "department 1003 of div00")

	var total float64
	for _, tc := range []struct {
		f             string
		wantEmp, want bool // want: the department entry
	}{
		// fanout-shared, fanout-distinct, search-mix and cascade-reload specs.
		{"(serialnumber=10*)", true, false},
		{"(serialnumber=11*)", false, false},
		{"(serialnumber=100*)", true, false},
		{"(&(objectclass=department)(div=div00))", false, true},
		{"(&(serialnumber=100*)(departmentnumber=1*))", true, false},
		{"(mail=*@us.xyz.com)", true, false},
		{"(dept=*)", false, true},
		{"(location=*)", false, false},
		// Table-1 query shapes.
		{"(serialNumber=100030017)", true, false},
		{"(mail=U1A2B3C4D@us.xyz.com)", true, false},
		{"(&(dept=1003)(div=div00))", false, true},
		{"(location=site003)", false, false},
		// The mixed-case objectClass value itself.
		{"(objectClass=inetorgperson)", true, false},
	} {
		n := mustParse(tc.f)
		for _, c := range []struct {
			e    *entry.Entry
			want bool
		}{{emp, tc.wantEmp}, {dept, tc.want}} {
			var got bool
			allocs := testing.AllocsPerRun(200, func() { got = n.Matches(c.e) })
			if got != c.want {
				t.Fatalf("%s.Matches(%s) = %v, want %v", tc.f, c.e.DN(), got, c.want)
			}
			if allocs != 0 {
				t.Errorf("%s.Matches(%s) allocates %.0f times, gate is 0", tc.f, c.e.DN(), allocs)
			}
			total += allocs
		}
	}
	t.Logf("filter.Matches (13 filters x 2 entries): %.0f allocations", total)
}
