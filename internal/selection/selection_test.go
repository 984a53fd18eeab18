package selection

import (
	"fmt"
	"strings"
	"testing"

	"filterdir/internal/containment"
	"filterdir/internal/filter"
	"filterdir/internal/query"
)

func TestPrefixRule(t *testing.T) {
	r := PrefixRule{Attr: "serialnumber", PrefixLen: 2}
	q := query.MustNew("", query.ScopeSubtree, "(serialnumber=0456)")
	got := r.Generalize(q)
	if len(got) != 1 {
		t.Fatalf("candidates = %d, want 1", len(got))
	}
	want := "(serialnumber=04*)"
	if got[0].FilterString() != want {
		t.Errorf("generalized = %s, want %s", got[0].FilterString(), want)
	}
	// Generalization must contain the original.
	if !containment.NewChecker().FilterContains(q.Filter, got[0].Filter) {
		t.Error("generalization does not contain original")
	}
	// Short values do not generalize.
	if out := r.Generalize(query.MustNew("", query.ScopeSubtree, "(serialnumber=04)")); len(out) != 0 {
		t.Errorf("short value generalized: %v", out)
	}
	// Prefix filters re-generalize to shorter prefixes.
	if out := r.Generalize(query.MustNew("", query.ScopeSubtree, "(serialnumber=0456*)")); len(out) != 1 || out[0].FilterString() != want {
		t.Errorf("substring generalization = %v", out)
	}
}

func TestWidenRule(t *testing.T) {
	r := WidenRule{DropAttr: "dept", ReplaceWith: filter.NewEQ("objectclass", "department")}
	q := query.MustNew("", query.ScopeSubtree, "(&(dept=2406)(div=sw))")
	got := r.Generalize(q)
	if len(got) != 1 {
		t.Fatalf("candidates = %d, want 1", len(got))
	}
	if !strings.Contains(got[0].FilterString(), "(div=sw)") ||
		!strings.Contains(got[0].FilterString(), "(objectclass=department)") {
		t.Errorf("widened = %s", got[0].FilterString())
	}
	// The widened filter contains the original restricted to the class; the
	// raw original lacks the objectclass conjunct, so check region logic via
	// a class-qualified query.
	q2 := query.MustNew("", query.ScopeSubtree, "(&(objectclass=department)(dept=2406)(div=sw))")
	if !containment.NewChecker().FilterContains(q2.Filter, got[0].Filter) {
		t.Errorf("widened filter does not contain class-qualified original")
	}
	// Dropping the only predicate yields nothing (refuse match-all).
	r2 := WidenRule{DropAttr: "dept"}
	if out := r2.Generalize(query.MustNew("", query.ScopeSubtree, "(dept=2406)")); len(out) != 0 {
		t.Errorf("match-all generalization not refused: %v", out)
	}
}

func TestGeneralizerDedup(t *testing.T) {
	g := NewGeneralizer(
		PrefixRule{Attr: "serialnumber", PrefixLen: 2},
		PrefixRule{Attr: "serialnumber", PrefixLen: 2}, // duplicate rule
		PrefixRule{Attr: "serialnumber", PrefixLen: 3},
	)
	q := query.MustNew("", query.ScopeSubtree, "(serialnumber=0456)")
	got := g.Generalize(q)
	if len(got) != 2 {
		t.Fatalf("candidates = %d, want 2 (deduplicated)", len(got))
	}
}

// sizeByPrefix sizes a candidate by prefix length: shorter prefix, more
// entries.
func sizeByPrefix(q query.Query) int {
	f := q.FilterString()
	switch {
	case strings.Contains(f, "=04*"), strings.Contains(f, "=05*"):
		return 100
	case strings.Contains(f, "=040*"), strings.Contains(f, "=051*"):
		return 10
	default:
		return 50
	}
}

func TestSelectorRevolutionPicksByRatio(t *testing.T) {
	g := NewGeneralizer(
		PrefixRule{Attr: "serialnumber", PrefixLen: 2},
		PrefixRule{Attr: "serialnumber", PrefixLen: 3},
	)
	s := NewSelector(g, sizeByPrefix, 50, 10)

	// Nine queries hitting 040x: candidates (04*) size 100 and (040*) size
	// 10 both get 9 hits; only (040*) fits the budget of 50 and has the
	// better ratio.
	var delta *Delta
	for i := 0; i < 10; i++ {
		delta = s.Observe(query.MustNew("", query.ScopeSubtree, fmt.Sprintf("(serialnumber=040%d)", i%10)))
	}
	if delta == nil {
		t.Fatal("revolution did not trigger at interval")
	}
	if len(delta.Add) != 1 || delta.Add[0].FilterString() != "(serialnumber=040*)" {
		t.Fatalf("delta.Add = %v", delta.Add)
	}
	if len(delta.Remove) != 0 {
		t.Errorf("delta.Remove = %v", delta.Remove)
	}
	if got := s.StoredSet(); len(got) != 1 {
		t.Errorf("StoredSet = %v", got)
	}
}

func TestSelectorEvictsColdFilters(t *testing.T) {
	g := NewGeneralizer(PrefixRule{Attr: "serialnumber", PrefixLen: 3})
	s := NewSelector(g, func(query.Query) int { return 10 }, 10, 5)

	// Warm 040*.
	var d *Delta
	for i := 0; i < 5; i++ {
		d = s.Observe(query.MustNew("", query.ScopeSubtree, "(serialnumber=0401)"))
	}
	if d == nil || len(d.Add) != 1 {
		t.Fatalf("initial revolution: %+v", d)
	}
	// Access pattern shifts to 051*; with budget for one filter, the next
	// revolution must swap.
	for i := 0; i < 5; i++ {
		d = s.Observe(query.MustNew("", query.ScopeSubtree, "(serialnumber=0511)"))
	}
	if d == nil {
		t.Fatal("second revolution missing")
	}
	if len(d.Add) != 1 || !strings.Contains(d.Add[0].FilterString(), "051") {
		t.Errorf("shift not adopted: %+v", d)
	}
	if len(d.Remove) != 1 || !strings.Contains(d.Remove[0].FilterString(), "040") {
		t.Errorf("cold filter not evicted: %+v", d)
	}
}

func TestSelectorBudgetRespected(t *testing.T) {
	g := NewGeneralizer(PrefixRule{Attr: "serialnumber", PrefixLen: 3})
	s := NewSelector(g, func(query.Query) int { return 30 }, 70, 20)
	for i := 0; i < 20; i++ {
		// Rotate over 5 prefixes; each candidate sized 30, budget 70 → at
		// most 2 stored.
		s.Observe(query.MustNew("", query.ScopeSubtree, fmt.Sprintf("(serialnumber=0%d5)", 40+i%5)))
	}
	if n := len(s.StoredSet()); n > 2 {
		t.Errorf("stored %d filters, budget allows 2", n)
	}
}

func TestForceRevolution(t *testing.T) {
	g := NewGeneralizer(PrefixRule{Attr: "serialnumber", PrefixLen: 3})
	s := NewSelector(g, func(query.Query) int { return 5 }, 100, 1000)
	s.Observe(query.MustNew("", query.ScopeSubtree, "(serialnumber=0401)"))
	d := s.ForceRevolution()
	if d == nil || len(d.Add) != 1 {
		t.Fatalf("ForceRevolution = %+v", d)
	}
}

func TestDefaultEnterpriseRules(t *testing.T) {
	g := NewGeneralizer(DefaultEnterpriseRules()...)
	got := g.Generalize(query.MustNew("", query.ScopeSubtree, "(serialnumber=045678)"))
	if len(got) != 2 {
		t.Errorf("serial generalizations = %v", got)
	}
	got = g.Generalize(query.MustNew("", query.ScopeSubtree, "(&(dept=2406)(div=sw))"))
	if len(got) != 1 {
		t.Errorf("dept generalizations = %v", got)
	}
}

func TestSelectorSkipsOversizedCandidates(t *testing.T) {
	g := NewGeneralizer(PrefixRule{Attr: "serialnumber", PrefixLen: 3})
	s := NewSelector(g, func(query.Query) int { return 1000 }, 10, 0)
	for i := 0; i < 5; i++ {
		s.Observe(query.MustNew("", query.ScopeSubtree, "(serialnumber=0401)"))
	}
	if d := s.ForceRevolution(); d != nil && len(d.Add) != 0 {
		t.Errorf("oversized candidate selected: %+v", d.Add)
	}
}

func TestSelectorZeroSizeCandidates(t *testing.T) {
	// Candidates matching nothing (size 0) are never stored.
	g := NewGeneralizer(PrefixRule{Attr: "serialnumber", PrefixLen: 3})
	s := NewSelector(g, func(query.Query) int { return 0 }, 10, 0)
	for i := 0; i < 5; i++ {
		s.Observe(query.MustNew("", query.ScopeSubtree, "(serialnumber=0401)"))
	}
	if d := s.ForceRevolution(); d != nil && len(d.Add) != 0 {
		t.Errorf("empty candidate selected: %+v", d.Add)
	}
}

func TestTopCandidatesLimit(t *testing.T) {
	g := NewGeneralizer(
		PrefixRule{Attr: "serialnumber", PrefixLen: 3},
		PrefixRule{Attr: "serialnumber", PrefixLen: 2},
	)
	sizes := map[int]int{3: 10, 2: 1000} // by prefix length
	sizeOf := func(q query.Query) int {
		vals := q.Filter.SlotValues()
		return sizes[len(vals[0])]
	}
	s := NewSelector(g, sizeOf, 1<<30, 0)
	for i := 0; i < 10; i++ {
		s.Observe(query.MustNew("", query.ScopeSubtree, "(serialnumber=0401)"))
	}
	all := s.TopCandidatesLimit(10, 0)
	if len(all) != 2 {
		t.Fatalf("uncapped TopCandidatesLimit = %d, want 2", len(all))
	}
	capped := s.TopCandidatesLimit(10, 100)
	if len(capped) != 1 {
		t.Fatalf("TopCandidatesLimit = %d, want 1 (the big prefix excluded)", len(capped))
	}
	if got := capped[0].FilterString(); got != "(serialnumber=040*)" {
		t.Errorf("capped candidate = %s", got)
	}
}

func mustQ(t *testing.T, f string) query.Query {
	t.Helper()
	return query.MustNew("o=xyz", query.ScopeSubtree, f).Normalize()
}

// TestWidenRuleUnderNegation pins the rule's polarity handling: dropping a
// predicate is only a generalization in positive positions. Under an odd
// number of NOTs (or on a negated predicate) the rule must not fire — the
// rewritten filter would be narrower than the input, not wider.
func TestWidenRuleUnderNegation(t *testing.T) {
	rule := WidenRule{DropAttr: "dept", ReplaceWith: filter.NewEQ("objectclass", "department")}

	// Positive conjunction: widens as documented.
	got := rule.Generalize(mustQ(t, "(&(dept=2406)(div=sw))"))
	if len(got) != 1 || got[0].FilterString() != "(&(div=sw)(objectclass=department))" {
		t.Fatalf("positive widen = %v", got)
	}

	// A dept predicate under NOT must not produce a candidate: replacing it
	// would shrink the complement.
	for _, f := range []string{
		"(!(dept=2406))",
		"(&(div=sw)(!(dept=2406)))",
		"(!(&(dept=2406)(div=sw)))",
	} {
		if got := rule.Generalize(mustQ(t, f)); got != nil {
			t.Errorf("Generalize(%s) = %v, want nil (negated context)", f, got)
		}
	}

	// Double negation is positive again.
	got = rule.Generalize(mustQ(t, "(!(!(dept=2406)))"))
	if len(got) != 1 {
		t.Fatalf("double-negated widen = %v, want one candidate", got)
	}

	// Mixed: only the positive occurrence widens; the negated one stays, and
	// the emitted candidate still contains the input.
	in := mustQ(t, "(&(dept=2406)(!(dept=9999)))")
	got = rule.Generalize(in)
	if len(got) != 1 {
		t.Fatalf("mixed-polarity widen = %v, want one candidate", got)
	}
	if s := got[0].FilterString(); s != "(&(!(dept=9999))(objectclass=department))" {
		t.Errorf("mixed-polarity candidate = %s", s)
	}
}

// TestPrefixRuleUnderNegation: prefix-widening an equality under NOT would
// narrow the filter, so negated occurrences are left alone. Soundness of the
// emitted candidates is re-checked with the containment prover.
func TestPrefixRuleUnderNegation(t *testing.T) {
	rule := PrefixRule{Attr: "serialnumber", PrefixLen: 2}

	for _, f := range []string{"(!(serialnumber=0456))", "(!(&(serialnumber=0456)(sn=x)))"} {
		if got := rule.Generalize(mustQ(t, f)); got != nil {
			t.Errorf("Generalize(%s) = %v, want nil (negated context)", f, got)
		}
	}

	in := mustQ(t, "(|(serialnumber=0456)(!(serialnumber=0999)))")
	got := rule.Generalize(in)
	if len(got) != 1 {
		t.Fatalf("mixed-polarity prefix = %v, want one candidate", got)
	}
	if s := got[0].FilterString(); s != "(|(!(serialnumber=0999))(serialnumber=04*))" {
		t.Errorf("mixed-polarity candidate = %s", s)
	}
	if !containment.NewChecker().QueryContains(in, got[0]) {
		t.Errorf("emitted candidate %s does not contain input %s", got[0], in)
	}
}

// self makes an observed query a candidate itself, as the tier control
// plane's identity rule does for a rejected spec.
type self struct{}

func (self) Generalize(q query.Query) []query.Query { return []query.Query{q} }

func unit(query.Query) int { return 1 }

// filters renders a delta's side as its filter strings.
func filters(qs []query.Query) string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.FilterString()
	}
	return strings.Join(out, " ")
}

// TestZeroBudgetSelectors: a selector with no budget never stores anything,
// however hot the observed queries are — whether revolutions come from the
// observation interval or from the caller's clock.
func TestZeroBudgetSelectors(t *testing.T) {
	gen := NewGeneralizer(PrefixRule{Attr: "serialnumber", PrefixLen: 2})
	hot := mustQ(t, "(serialnumber=0456)")
	for _, interval := range []int{1, 0} {
		s := NewSelector(gen, unit, 0, interval)
		for i := 0; i < 20; i++ {
			if d := s.Observe(hot); d != nil && len(d.Add) > 0 {
				t.Fatalf("interval %d: zero-budget Observe stored %v", interval, d.Add)
			}
		}
		if d := s.ForceRevolution(); len(d.Add) > 0 {
			t.Fatalf("interval %d: zero-budget revolution stored %v", interval, d.Add)
		}
		if got := s.StoredSet(); len(got) != 0 {
			t.Fatalf("interval %d: zero-budget stored set = %v", interval, got)
		}
	}
}

// TestObserveCreditsCoveringStored: an observation already covered by a
// stored filter credits that filter instead of growing a duplicate
// candidate, and Credit reaches the same filter.
func TestObserveCreditsCoveringStored(t *testing.T) {
	prefixes := []Rule{
		PrefixRule{Attr: "serialnumber", PrefixLen: 2},
		PrefixRule{Attr: "serialnumber", PrefixLen: 3},
	}
	stored := mustQ(t, "(serialnumber=04*)")
	for _, tc := range []struct {
		name     string
		rules    []Rule
		feed     func(*Selector) bool
		wantHits uint64
	}{
		// Both generalizations — (serialnumber=04*) exactly and the contained
		// (serialnumber=045*) — credit the stored filter.
		{"observation", prefixes,
			func(s *Selector) bool { return s.Observe(mustQ(t, "(serialnumber=0456)")) == nil }, 2},
		// The observed spec itself plus both generalizations, all covered.
		{"observation with identity rule", append([]Rule{self{}}, prefixes...),
			func(s *Selector) bool { return s.Observe(mustQ(t, "(serialnumber=0456)")) == nil }, 3},
		{"credit to a covered spec", prefixes,
			func(s *Selector) bool { return s.Credit(mustQ(t, "(serialnumber=0456)"), 5) }, 5},
		{"credit to an uncovered spec", prefixes,
			func(s *Selector) bool { return !s.Credit(mustQ(t, "(serialnumber=0556)"), 5) }, 0},
	} {
		s := NewSelector(NewGeneralizer(tc.rules...), unit, 4, 0)
		s.Contains = containment.NewChecker().QueryContains
		s.Seed([]query.Query{stored})
		if !tc.feed(s) {
			t.Errorf("%s: unexpected result", tc.name)
		}
		if got := s.stored[stored.Key()].Hits; got != tc.wantHits {
			t.Errorf("%s: stored hits = %d, want %d", tc.name, got, tc.wantHits)
		}
		if len(s.candidates) != 0 {
			t.Errorf("%s: grew %d candidates", tc.name, len(s.candidates))
		}
		if d := s.ForceRevolution(); len(d.Add)+len(d.Remove) != 0 {
			t.Errorf("%s: revolution changed the stored set: %+v", tc.name, d)
		}
	}
}

// TestRevolutionOverSeededSet drives the selector the way the tier control
// plane does — seeded and pinned filters, observations of rejected specs,
// serving credit, one revolution — with every filter costing one unit.
func TestRevolutionOverSeededSet(t *testing.T) {
	type hits struct {
		filter string
		n      int
	}
	qs := func(fs []string) []query.Query {
		out := make([]query.Query, len(fs))
		for i, f := range fs {
			out[i] = mustQ(t, f)
		}
		return out
	}
	for _, tc := range []struct {
		name        string
		budget      int
		seed, pin   []string
		observe     []hits
		credit      []hits
		add, remove []string
	}{
		{name: "a seeded filter without hits stays while there is room",
			budget: 2, seed: []string{"(serialnumber=04*)"}},
		// The spec and its two generalizations tie; the widest sorts first
		// and covers the others, so one filter is adopted, not three.
		{name: "one rejected spec adopts its widest generalization only",
			budget: 4, observe: []hits{{"(serialnumber=0456)", 1}},
			add: []string{"(serialnumber=04*)"}},
		{name: "a pinned filter is charged first and never removed",
			budget: 1, seed: []string{"(serialnumber=04*)"}, pin: []string{"(serialnumber=04*)"},
			observe: []hits{{"(serialnumber=0512)", 20}}},
		{name: "a full budget trades the cold unpinned filter for the hot candidate",
			budget: 2, seed: []string{"(serialnumber=04*)", "(serialnumber=05*)"}, pin: []string{"(serialnumber=04*)"},
			observe: []hits{{"(serialnumber=0612)", 3}},
			add:     []string{"(serialnumber=06*)"}, remove: []string{"(serialnumber=05*)"}},
		{name: "serving credit holds a filter against fewer rejections",
			budget: 2, seed: []string{"(serialnumber=04*)", "(serialnumber=05*)"}, pin: []string{"(serialnumber=04*)"},
			observe: []hits{{"(serialnumber=0612)", 3}}, credit: []hits{{"(serialnumber=0502)", 10}}},
		{name: "with room both the cold filter and the hot candidate are held",
			budget: 3, seed: []string{"(serialnumber=04*)", "(serialnumber=05*)"}, pin: []string{"(serialnumber=04*)"},
			observe: []hits{{"(serialnumber=0612)", 3}},
			add:     []string{"(serialnumber=06*)"}},
	} {
		s := NewSelector(NewGeneralizer(self{},
			PrefixRule{Attr: "serialnumber", PrefixLen: 2},
			PrefixRule{Attr: "serialnumber", PrefixLen: 3}), unit, tc.budget, 0)
		s.Contains = containment.NewChecker().QueryContains
		s.Seed(qs(tc.seed))
		s.Pin(qs(tc.pin))
		for _, o := range tc.observe {
			for i := 0; i < o.n; i++ {
				if d := s.Observe(mustQ(t, o.filter)); d != nil {
					t.Fatalf("%s: Observe with interval 0 returned %+v", tc.name, d)
				}
			}
		}
		for _, c := range tc.credit {
			s.Credit(mustQ(t, c.filter), uint64(c.n))
		}
		d := s.ForceRevolution()
		if got, want := filters(d.Add), strings.Join(tc.add, " "); got != want {
			t.Errorf("%s: added %q, want %q", tc.name, got, want)
		}
		if got, want := filters(d.Remove), strings.Join(tc.remove, " "); got != want {
			t.Errorf("%s: removed %q, want %q", tc.name, got, want)
		}
	}
}

// TestUnseedMakesTheFilterACandidateAgain: a filter a revolution selected and
// the caller could not start replicating is taken back out. It frees its
// share of the budget, stops absorbing observations of itself, and the next
// revolution may add it again.
func TestUnseedMakesTheFilterACandidateAgain(t *testing.T) {
	s := NewSelector(NewGeneralizer(PrefixRule{Attr: "serialnumber", PrefixLen: 2}), unit, 1, 0)
	s.Contains = containment.NewChecker().QueryContains
	hot, wide := mustQ(t, "(serialnumber=0456)"), mustQ(t, "(serialnumber=04*)")
	s.Observe(hot)
	if d := s.ForceRevolution(); filters(d.Add) != "(serialnumber=04*)" {
		t.Fatalf("first revolution added %q", filters(d.Add))
	}
	s.Observe(hot)
	if len(s.candidates) != 0 {
		t.Fatal("a stored filter's own observation grew a candidate")
	}
	s.Unseed(wide)
	if got := s.StoredSet(); len(got) != 0 {
		t.Fatalf("stored set after Unseed = %v", got)
	}
	s.Observe(hot)
	if d := s.ForceRevolution(); filters(d.Add) != "(serialnumber=04*)" || len(d.Remove) != 0 {
		t.Errorf("revolution after Unseed: %+v, want the filter added again and nothing removed", d)
	}
}

// StoredSet returns the currently selected queries.
func (s *Selector) StoredSet() []query.Query {
	out := make([]query.Query, 0, len(s.stored))
	for _, c := range s.stored {
		out = append(out, c.Query)
	}
	sortQueries(out)
	return out
}
