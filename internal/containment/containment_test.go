package containment

import (
	"fmt"
	"math/rand"
	"testing"

	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/filter"
	"filterdir/internal/query"
)

// mustParse parses a filter the test spells out, panicking on a typo.
func mustParse(s string) *filter.Node {
	n, err := filter.Parse(s)
	if err != nil {
		panic(err)
	}
	return n
}

// contains runs the generic Proposition 1 check, failing the test on
// complexity errors.
func contains(t *testing.T, f1, f2 string) bool {
	t.Helper()
	got, err := FilterContainsGeneric(mustParse(f1), mustParse(f2))
	if err != nil {
		t.Fatalf("FilterContainsGeneric(%s, %s): %v", f1, f2, err)
	}
	return got
}

func TestFilterContainsGeneric(t *testing.T) {
	tests := []struct {
		f1, f2 string
		want   bool
	}{
		// Same predicate.
		{"(sn=Doe)", "(sn=Doe)", true},
		{"(sn=Doe)", "(sn=doe)", true}, // case-insensitive
		{"(sn=Doe)", "(sn=Smith)", false},

		// Conjunction weakening.
		{"(&(sn=Doe)(givenname=John))", "(sn=Doe)", true},
		{"(sn=Doe)", "(&(sn=Doe)(givenname=John))", false},

		// Disjunction strengthening.
		{"(sn=Doe)", "(|(sn=Doe)(sn=Smith))", true},
		{"(|(sn=Doe)(sn=Smith))", "(sn=Doe)", false},
		{"(|(sn=Doe)(sn=Smith))", "(|(sn=Smith)(sn=Doe)(sn=Jones))", true},

		// Integer ranges (age has INTEGER syntax).
		{"(age>=40)", "(age>=30)", true},
		{"(age>=30)", "(age>=40)", false},
		{"(age<=20)", "(age<=30)", true},
		{"(age=35)", "(age>=30)", true},
		{"(age=25)", "(age>=30)", false},
		{"(age=35)", "(&(age>=30)(age<=40))", true},
		{"(&(age>=30)(age<=40))", "(age>=20)", true},
		{"(&(age>=30)(age<=40))", "(age>=35)", false},
		// Discrete integers: 30 < age < 32 pins 31; contained in (age=31)?
		// Hole/pin reasoning over ints is conservative: not claimed.
		{"(&(age>=31)(age<=31))", "(age>=31)", true},

		// String ranges (sn orders lexicographically).
		{"(&(sn>=b)(sn<=d))", "(sn>=a)", true},
		{"(&(sn>=b)(sn<=d))", "(sn>=c)", false},
		{"(sn>=b)", "(sn>=a)", true},

		// Equality vs substring prefix.
		{"(serialnumber=0456)", "(serialnumber=04*)", true},
		{"(serialnumber=0456)", "(serialnumber=05*)", false},
		{"(serialnumber=0456)", "(serialnumber=*56)", true},
		{"(serialnumber=0456)", "(serialnumber=0*5*)", true},
		{"(mail=john@us.xyz.com)", "(mail=*@us.xyz.com)", true},
		{"(mail=john@in.xyz.com)", "(mail=*@us.xyz.com)", false},

		// Prefix in prefix (also exercised via Prop 3 in Checker).
		{"(serialnumber=0456*)", "(serialnumber=04*)", true},
		{"(serialnumber=04*)", "(serialnumber=0456*)", false},

		// Cross-template: extra conjunct in F1.
		{"(&(objectclass=inetOrgPerson)(dept=2406))", "(objectclass=inetOrgPerson)", true},
		{"(objectclass=inetOrgPerson)", "(&(objectclass=inetOrgPerson)(dept=2406))", false},

		// The paper's department example: specific dept query inside the
		// generalized prefix filter spanning countries.
		{"(&(objectclass=inetorgperson)(departmentnumber=2406))",
			"(&(objectclass=inetorgperson)(departmentnumber=240*))", true},
		{"(&(objectclass=inetorgperson)(departmentnumber=2506))",
			"(&(objectclass=inetorgperson)(departmentnumber=240*))", false},

		// Unsatisfiable F1 is contained in everything.
		{"(&(sn=Doe)(!(sn=Doe)))", "(givenname=x)", true},

		// Everything is contained in (objectclass=*) (match-all rewrite).
		{"(sn=Doe)", "(objectclass=*)", true},
		{"(objectclass=*)", "(sn=Doe)", false},
		{"(objectclass=*)", "(objectclass=*)", true},

		// Negation.
		{"(!(sn=Doe))", "(!(sn=Doe))", true},
		// Under the single-valued interpretation an entry cannot carry both
		// sn=Smith and sn=Doe, so (sn=Smith) is contained in (!(sn=Doe)).
		{"(sn=Smith)", "(!(sn=Doe))", true},
		// ¬A ⊆ ¬B iff B ⊆ A; B adds a conjunct so B ⊆ A holds.
		{"(!(&(sn=Doe)(age>=30)))", "(!(&(sn=Doe)(age>=30)(dept=5)))", true},
		{"(!(&(sn=Doe)(age>=30)(dept=5)))", "(!(&(sn=Doe)(age>=30)))", false},

		// Presence.
		{"(sn=Doe)", "(sn=*)", true},
		{"(sn=*)", "(sn=Doe)", false},
		{"(sn=smi*)", "(sn=*)", true},

		// Range + negated range.
		{"(age>=40)", "(!(age<=30))", true},
		{"(age>=30)", "(!(age<=30))", false},
		{"(age<=20)", "(!(age>=30))", true},

		// OR of prefixes.
		{"(serialnumber=0456)", "(|(serialnumber=04*)(serialnumber=05*))", true},
		{"(serialnumber=0656)", "(|(serialnumber=04*)(serialnumber=05*))", false},
	}
	for _, tt := range tests {
		t.Run(tt.f1+" in "+tt.f2, func(t *testing.T) {
			if got := contains(t, tt.f1, tt.f2); got != tt.want {
				t.Errorf("contains(%s, %s) = %v, want %v", tt.f1, tt.f2, got, tt.want)
			}
		})
	}
}

func TestSameTemplateContains(t *testing.T) {
	tests := []struct {
		f1, f2 string
		want   bool
	}{
		{"(serialnumber=0456*)", "(serialnumber=04*)", true},
		{"(serialnumber=04*)", "(serialnumber=0456*)", false},
		{"(sn=Doe)", "(sn=doe)", true},
		{"(sn=Doe)", "(sn=Smith)", false},
		{"(&(dept=2406)(div=sw))", "(&(dept=2406)(div=sw))", true},
		{"(age>=40)", "(age>=30)", true},
		{"(age<=20)", "(age<=30)", true},
		{"(sn=*son)", "(sn=*on)", true},
		{"(sn=*son)", "(sn=*box)", false},
		{"(sn=a*bcd*e)", "(sn=a*c*e)", true},
		{"(sn=a*bcd*e)", "(sn=a*x*e)", false},
	}
	for _, tt := range tests {
		f1, f2 := mustParse(tt.f1), mustParse(tt.f2)
		if f1.Template() != f2.Template() {
			t.Fatalf("test setup: templates differ for %s / %s", tt.f1, tt.f2)
		}
		if got := SameTemplateContains(f1, f2); got != tt.want {
			t.Errorf("SameTemplateContains(%s, %s) = %v, want %v", tt.f1, tt.f2, got, tt.want)
		}
	}
}

func TestCheckerAgreesWithGeneric(t *testing.T) {
	pool := []string{
		"(sn=Doe)", "(sn=Smith)", "(sn=doe)",
		"(age>=30)", "(age>=40)", "(age<=35)", "(age=35)",
		"(serialnumber=0456)", "(serialnumber=04*)", "(serialnumber=045*)",
		"(&(sn=Doe)(age>=30))", "(&(dept=2406)(div=sw))", "(&(dept=2406)(div=hw))",
		"(|(sn=Doe)(sn=Smith))", "(objectclass=*)", "(sn=*)",
		"(&(objectclass=inetorgperson)(departmentnumber=240*))",
		"(&(objectclass=inetorgperson)(departmentnumber=2406))",
		"(!(sn=Doe))", "(mail=*@us.xyz.com)", "(mail=john@us.xyz.com)",
	}
	c := NewChecker()
	for _, s1 := range pool {
		for _, s2 := range pool {
			f1, f2 := mustParse(s1), mustParse(s2)
			want, err := FilterContainsGeneric(f1, f2)
			if err != nil {
				t.Fatalf("generic(%s, %s): %v", s1, s2, err)
			}
			if got := c.FilterContains(f1, f2); got != want {
				t.Errorf("Checker.FilterContains(%s, %s) = %v, generic says %v", s1, s2, got, want)
			}
		}
	}
	st := c.Stats()
	if st.SameTemplate == 0 || st.Compiled == 0 || st.ImpossiblePruned == 0 {
		t.Errorf("expected all decision paths exercised, got %+v", st)
	}
	if st.PlansCompiled == 0 {
		t.Error("no plans compiled")
	}
}

func TestCheckerPlanCacheReuse(t *testing.T) {
	c := NewChecker()
	// Same template pair, different values: one plan, many evaluations.
	for i := 0; i < 50; i++ {
		f1 := mustParse(fmt.Sprintf("(serialnumber=0%d)", i))
		f2 := mustParse(fmt.Sprintf("(serialnumber=0%d*)", i%7))
		c.FilterContains(f1, f2)
	}
	st := c.Stats()
	if st.PlansCompiled != 1 {
		t.Errorf("PlansCompiled = %d, want 1", st.PlansCompiled)
	}
	if st.Compiled != 50 {
		t.Errorf("Compiled evaluations = %d, want 50", st.Compiled)
	}
}

func TestImpossiblePairPruned(t *testing.T) {
	c := NewChecker()
	f1 := mustParse("(sn=Doe)")
	f2 := mustParse("(&(sn=Doe)(ou=research))")
	for i := 0; i < 10; i++ {
		if c.FilterContains(f1, f2) {
			t.Fatal("(sn=_) can never be contained in (&(sn=_)(ou=_))")
		}
	}
	st := c.Stats()
	if st.ImpossiblePruned != 10 {
		t.Errorf("ImpossiblePruned = %d, want 10", st.ImpossiblePruned)
	}
}

func TestQueryContains(t *testing.T) {
	sub := func(base, f string, attrs ...string) query.Query {
		return query.MustNew(base, query.ScopeSubtree, f, attrs...)
	}
	tests := []struct {
		name  string
		q, qs query.Query
		want  bool
	}{
		{
			name: "same base subtree, contained filter",
			q:    sub("c=us,o=xyz", "(serialnumber=0456)"),
			qs:   sub("c=us,o=xyz", "(serialnumber=04*)"),
			want: true,
		},
		{
			name: "base under stored subtree",
			q:    sub("ou=research,c=us,o=xyz", "(sn=Doe)"),
			qs:   sub("o=xyz", "(sn=Doe)"),
			want: true,
		},
		{
			name: "stored base under query base",
			q:    sub("o=xyz", "(sn=Doe)"),
			qs:   sub("c=us,o=xyz", "(sn=Doe)"),
			want: false,
		},
		{
			name: "null-base query in null-base stored",
			q:    sub("", "(serialnumber=0456)"),
			qs:   sub("", "(serialnumber=04*)"),
			want: true,
		},
		{
			name: "scope narrowing: base query inside subtree stored",
			q:    query.MustNew("cn=a,c=us,o=xyz", query.ScopeBase, "(sn=Doe)"),
			qs:   sub("c=us,o=xyz", "(sn=Doe)"),
			want: true,
		},
		{
			name: "subtree query not inside one-level stored",
			q:    sub("c=us,o=xyz", "(sn=Doe)"),
			qs:   query.MustNew("c=us,o=xyz", query.ScopeSingleLevel, "(sn=Doe)"),
			want: false,
		},
		{
			name: "base query at child inside one-level stored",
			q:    query.MustNew("cn=a,c=us,o=xyz", query.ScopeBase, "(sn=Doe)"),
			qs:   query.MustNew("c=us,o=xyz", query.ScopeSingleLevel, "(sn=Doe)"),
			want: true,
		},
		{
			name: "one-level query at same base inside one-level stored",
			q:    query.MustNew("c=us,o=xyz", query.ScopeSingleLevel, "(sn=Doe)"),
			qs:   query.MustNew("c=us,o=xyz", query.ScopeSingleLevel, "(sn=Doe)"),
			want: true,
		},
		{
			name: "base query at grandchild not inside one-level stored",
			q:    query.MustNew("cn=a,ou=r,c=us,o=xyz", query.ScopeBase, "(sn=Doe)"),
			qs:   query.MustNew("c=us,o=xyz", query.ScopeSingleLevel, "(sn=Doe)"),
			want: false,
		},
		{
			// The stored images lack sn, so (sn=Doe) matches none of them
			// at the replica while the master's entries carry it.
			name: "attrs subset, filter attribute not kept",
			q:    sub("o=xyz", "(sn=Doe)", "cn", "mail"),
			qs:   sub("o=xyz", "(sn=Doe)", "cn", "mail", "telephonenumber"),
			want: false,
		},
		{
			name: "attrs subset, filter attribute kept",
			q:    sub("o=xyz", "(sn=Doe)", "cn", "mail"),
			qs:   sub("o=xyz", "(sn=Doe)", "cn", "mail", "SN"),
			want: true,
		},
		{
			name: "narrower filter names an attribute the stored query drops",
			q:    sub("o=xyz", "(&(serialnumber=0401)(sn=y))", "cn"),
			qs:   sub("o=xyz", "(serialnumber=04*)", "cn"),
			want: false,
		},
		{
			name: "attrs not subset",
			q:    sub("o=xyz", "(sn=Doe)", "cn", "postaladdress"),
			qs:   sub("o=xyz", "(sn=Doe)", "cn", "mail"),
			want: false,
		},
		{
			name: "query wants all attrs, stored partial",
			q:    sub("o=xyz", "(sn=Doe)"),
			qs:   sub("o=xyz", "(sn=Doe)", "cn", "mail"),
			want: false,
		},
		{
			name: "stored wants all attrs",
			q:    sub("o=xyz", "(sn=Doe)", "cn"),
			qs:   sub("o=xyz", "(sn=Doe)"),
			want: true,
		},
	}
	c := NewChecker()
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := c.QueryContains(tt.q, tt.qs); got != tt.want {
				t.Errorf("QueryContains = %v, want %v\n  q  = %s\n  qs = %s", got, tt.want, tt.q, tt.qs)
			}
		})
	}
}

// --- Soundness property test ------------------------------------------------

// randFilter builds a random positive-or-negated filter over a small value
// domain so that random entries have a real chance of matching.
func randFilter(r *rand.Rand, depth int) *filter.Node {
	attrs := []string{"sn", "age", "dept", "serialnumber", "mail"}
	values := []string{"a", "b", "c", "10", "20", "30", "0456", "04", "x@y"}
	attr := attrs[r.Intn(len(attrs))]
	val := values[r.Intn(len(values))]
	if depth > 0 && r.Intn(3) == 0 {
		n := 2 + r.Intn(2)
		kids := make([]*filter.Node, n)
		for i := range kids {
			kids[i] = randFilter(r, depth-1)
		}
		if r.Intn(2) == 0 {
			return filter.NewAnd(kids...)
		}
		return filter.NewOr(kids...)
	}
	if depth > 0 && r.Intn(6) == 0 {
		return filter.NewNot(randFilter(r, depth-1))
	}
	switch r.Intn(5) {
	case 0:
		return filter.NewEQ(attr, val)
	case 1:
		return filter.NewGE(attr, val)
	case 2:
		return filter.NewLE(attr, val)
	case 3:
		return filter.NewPresent(attr)
	default:
		return filter.NewSubstr(attr, filter.Substring{Initial: val})
	}
}

// randEntry builds a random single-valued entry over the same domain.
func randEntry(r *rand.Rand) *entry.Entry {
	attrs := []string{"sn", "age", "dept", "serialnumber", "mail"}
	values := []string{"a", "b", "c", "10", "20", "30", "0456", "04", "x@y", "0456xyz"}
	e := entry.New(dn.MustParse("cn=t,o=xyz"))
	e.Put("objectclass", "person")
	for _, a := range attrs {
		if r.Intn(3) != 0 { // ~2/3 present
			e.Put(a, values[r.Intn(len(values))])
		}
	}
	return e
}

func TestContainmentSoundness(t *testing.T) {
	// If containment is claimed, no single-valued entry may match F1 but
	// not F2. This is the invariant that keeps replicas from serving wrong
	// answers.
	r := rand.New(rand.NewSource(7))
	c := NewChecker()
	claimed := 0
	for i := 0; i < 3000; i++ {
		f1 := randFilter(r, 2)
		f2 := randFilter(r, 2)
		genericOK, err := FilterContainsGeneric(f1, f2)
		if err != nil {
			continue
		}
		checkerOK := c.FilterContains(f1, f2)
		if checkerOK != genericOK {
			t.Fatalf("checker and generic disagree on\n  f1=%s\n  f2=%s\n  checker=%v generic=%v",
				f1, f2, checkerOK, genericOK)
		}
		if !genericOK {
			continue
		}
		claimed++
		for j := 0; j < 60; j++ {
			e := randEntry(r)
			if f1.Matches(e) && !orDefault(f2).Matches(e) {
				t.Fatalf("unsound containment:\n  f1=%s\n  f2=%s\n  entry=%s", f1, f2, e)
			}
		}
	}
	if claimed < 30 {
		t.Errorf("property test too weak: only %d containments claimed", claimed)
	}
}

func TestScopeContainsSelf(t *testing.T) {
	q := query.MustNew("c=us,o=xyz", query.ScopeSubtree, "(sn=Doe)")
	if !ScopeContains(q, q) {
		t.Error("a query's region must contain itself")
	}
}

func BenchmarkSameTemplate(b *testing.B) {
	c := NewChecker()
	f1 := mustParse("(serialnumber=045678)")
	f2 := mustParse("(serialnumber=04*)")
	// Different templates: EQ vs prefix — compiled path.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !c.FilterContains(f1, f2) {
			b.Fatal("expected containment")
		}
	}
}

func BenchmarkCompiledVsGeneric(b *testing.B) {
	f1 := mustParse("(&(objectclass=inetorgperson)(departmentnumber=2406))")
	f2 := mustParse("(&(objectclass=inetorgperson)(departmentnumber=240*))")
	b.Run("compiled", func(b *testing.B) {
		c := NewChecker()
		c.FilterContains(f1, f2) // warm the plan cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !c.FilterContains(f1, f2) {
				b.Fatal("expected containment")
			}
		}
	})
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ok, err := FilterContainsGeneric(f1, f2)
			if err != nil || !ok {
				b.Fatal("expected containment")
			}
		}
	})
}
