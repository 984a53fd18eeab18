package dit

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
)

// buildSmallDIT creates the o=xyz tree of Figure 1/2 on a single store.
func buildSmallDIT(t *testing.T, opts ...Option) *Store {
	t.Helper()
	st, err := NewStore([]string{"o=xyz"}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	add := func(dnStr string, attrs map[string][]string) {
		e := entry.New(dn.MustParse(dnStr))
		for k, v := range attrs {
			e.Put(k, v...)
		}
		if err := st.Add(e); err != nil {
			t.Fatalf("add %s: %v", dnStr, err)
		}
	}
	add("o=xyz", map[string][]string{"objectclass": {"organization"}, "o": {"xyz"}})
	add("c=us,o=xyz", map[string][]string{"objectclass": {"country"}, "c": {"us"}})
	add("ou=research,c=us,o=xyz", map[string][]string{"objectclass": {"organizationalUnit"}, "ou": {"research"}})
	add("cn=John Doe,ou=research,c=us,o=xyz", map[string][]string{
		"objectclass":  {"top", "person", "organizationalPerson", "inetOrgPerson"},
		"cn":           {"John Doe", "John M Doe"},
		"sn":           {"Doe"},
		"serialNumber": {"0456"},
		"mail":         {"john@us.xyz.com"},
	})
	add("cn=Fred Jones,c=us,o=xyz", map[string][]string{
		"objectclass": {"person"}, "cn": {"Fred Jones"}, "sn": {"Jones"},
		"serialNumber": {"0457"},
	})
	add("cn=Carl Miller,ou=research,c=us,o=xyz", map[string][]string{
		"objectclass": {"person"}, "cn": {"Carl Miller"}, "sn": {"Miller"},
		"serialNumber": {"0501"},
	})
	return st
}

func mustSearch(t *testing.T, st *Store, base string, scope query.Scope, f string) *Result {
	t.Helper()
	res, err := st.Search(query.MustNew(base, scope, f))
	if err != nil {
		t.Fatalf("search base=%q scope=%v filter=%q: %v", base, scope, f, err)
	}
	return res
}

func TestSearchScopes(t *testing.T) {
	st := buildSmallDIT(t)
	tests := []struct {
		name  string
		base  string
		scope query.Scope
		f     string
		want  int
	}{
		{"subtree all", "o=xyz", query.ScopeSubtree, "(objectclass=*)", 6},
		{"subtree persons", "o=xyz", query.ScopeSubtree, "(sn=*)", 3},
		{"one level of country", "c=us,o=xyz", query.ScopeSingleLevel, "(objectclass=*)", 2},
		{"base", "c=us,o=xyz", query.ScopeBase, "(objectclass=*)", 1},
		{"base no match", "c=us,o=xyz", query.ScopeBase, "(sn=Doe)", 0},
		{"subtree filter", "o=xyz", query.ScopeSubtree, "(sn=Doe)", 1},
		{"research subtree", "ou=research,c=us,o=xyz", query.ScopeSubtree, "(objectclass=person)", 2},
		{"serial prefix", "o=xyz", query.ScopeSubtree, "(serialnumber=04*)", 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res := mustSearch(t, st, tt.base, tt.scope, tt.f)
			if len(res.Entries) != tt.want {
				t.Errorf("got %d entries, want %d", len(res.Entries), tt.want)
			}
		})
	}
}

func TestSearchErrors(t *testing.T) {
	st := buildSmallDIT(t)
	_, err := st.Search(query.MustNew("cn=missing,o=xyz", query.ScopeBase, ""))
	if !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("missing base: got %v, want ErrNoSuchObject", err)
	}
	_, err = st.Search(query.MustNew("o=other", query.ScopeSubtree, ""))
	if !errors.Is(err, ErrNoSuchContext) {
		t.Errorf("foreign base: got %v, want ErrNoSuchContext", err)
	}
}

func TestDefaultReferral(t *testing.T) {
	st := buildSmallDIT(t)
	stB, err := NewStore([]string{"ou=research,c=us,o=xyz"}, WithDefaultReferral("ldap://hostA"))
	if err != nil {
		t.Fatal(err)
	}
	_ = st
	res, err := stB.Search(query.MustNew("o=xyz", query.ScopeSubtree, ""))
	if !errors.Is(err, ErrNoSuchContext) {
		t.Fatalf("expected ErrNoSuchContext, got %v", err)
	}
	if len(res.Referrals) != 1 || res.Referrals[0] != "ldap://hostA" {
		t.Errorf("default referral = %v", res.Referrals)
	}
}

func TestReferralObjects(t *testing.T) {
	// hostA of Figure 2: holds o=xyz with referrals to hostB and hostC.
	st, err := NewStore([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	add := func(e *entry.Entry) {
		t.Helper()
		if err := st.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	org := entry.New(dn.MustParse("o=xyz"))
	org.Put("objectclass", "organization").Put("o", "xyz")
	add(org)
	us := entry.New(dn.MustParse("c=us,o=xyz"))
	us.Put("objectclass", "country").Put("c", "us")
	add(us)
	person := entry.New(dn.MustParse("cn=Ann,c=us,o=xyz"))
	person.Put("objectclass", "person").Put("cn", "Ann").Put("sn", "A")
	add(person)
	refB := entry.New(dn.MustParse("ou=research,c=us,o=xyz"))
	refB.Put("objectclass", ReferralClass).Put(RefAttr, "ldap://hostB/ou=research,c=us,o=xyz")
	add(refB)
	refC := entry.New(dn.MustParse("c=in,o=xyz"))
	refC.Put("objectclass", ReferralClass).Put(RefAttr, "ldap://hostC/c=in,o=xyz")
	add(refC)

	res := mustSearch(t, st, "o=xyz", query.ScopeSubtree, "(objectclass=*)")
	// Three real entries (o=xyz, c=us, cn=Ann) and two referrals.
	if len(res.Entries) != 3 {
		t.Errorf("entries = %d, want 3", len(res.Entries))
	}
	if len(res.Referrals) != 2 {
		t.Errorf("referrals = %v, want 2", res.Referrals)
	}

	// Searching at a referral object itself returns its URL.
	res = mustSearch(t, st, "ou=research,c=us,o=xyz", query.ScopeSubtree, "(objectclass=*)")
	if len(res.Entries) != 0 || len(res.Referrals) != 1 {
		t.Errorf("referral base: entries=%d referrals=%v", len(res.Entries), res.Referrals)
	}

	// One-level search at c=us sees the person and the research referral.
	res = mustSearch(t, st, "c=us,o=xyz", query.ScopeSingleLevel, "(objectclass=*)")
	if len(res.Entries) != 1 || len(res.Referrals) != 1 {
		t.Errorf("one-level: entries=%d referrals=%v", len(res.Entries), res.Referrals)
	}
}

func TestAddErrors(t *testing.T) {
	st := buildSmallDIT(t)
	dup := entry.New(dn.MustParse("c=us,o=xyz"))
	dup.Put("objectclass", "country").Put("c", "us")
	if err := st.Add(dup); !errors.Is(err, ErrAlreadyExists) {
		t.Errorf("duplicate add: %v", err)
	}
	orphan := entry.New(dn.MustParse("cn=x,ou=missing,o=xyz"))
	orphan.Put("objectclass", "person").Put("cn", "x").Put("sn", "x")
	if err := st.Add(orphan); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("orphan add: %v", err)
	}
	foreign := entry.New(dn.MustParse("cn=x,o=other"))
	foreign.Put("objectclass", "person")
	if err := st.Add(foreign); !errors.Is(err, ErrNoSuchContext) {
		t.Errorf("foreign add: %v", err)
	}
}

// TestSchemaEnforcement pins the one schema rule: every path by which
// outside input reaches a master refuses an entry it would leave without an
// objectclass value, with ErrSchema and without committing anything, while
// the replica-side applies take attribute-selected images that lack one.
func TestSchemaEnforcement(t *testing.T) {
	bare := func(d string) *entry.Entry {
		return entry.New(dn.MustParse(d)).Put("cn", "x").Put("sn", "x")
	}
	person := dn.MustParse("cn=Fred Jones,c=us,o=xyz")
	refused := []struct {
		name string
		op   func(st *Store) error
	}{
		{"add", func(st *Store) error { return st.Add(bare("cn=x,c=us,o=xyz")) }},
		{"load", func(st *Store) error { return st.Load([]*entry.Entry{bare("cn=x,c=us,o=xyz")}) }},
		{"apply add", func(st *Store) error {
			_, err := st.ApplyCSN(Change{Type: ChangeAdd, DN: dn.MustParse("cn=x,c=us,o=xyz"), After: bare("cn=x,c=us,o=xyz")})
			return err
		}},
		{"apply modify deleting the last value", func(st *Store) error {
			_, err := st.ApplyCSN(Change{Type: ChangeModify, DN: person, Mods: []Mod{{Op: ModDelete, Attr: "objectClass", Values: []string{"person"}}}})
			return err
		}},
		{"apply modify deleting the attribute", func(st *Store) error {
			_, err := st.ApplyCSN(Change{Type: ChangeModify, DN: person, Mods: []Mod{{Op: ModDelete, Attr: "objectclass"}}})
			return err
		}},
		{"apply modify replacing it away", func(st *Store) error {
			_, err := st.ApplyCSN(Change{Type: ChangeModify, DN: person, Mods: []Mod{{Op: ModReplace, Attr: "objectclass"}}})
			return err
		}},
		{"modify deleting the attribute", func(st *Store) error {
			return st.Modify(person, []Mod{{Op: ModDelete, Attr: "objectClass"}})
		}},
	}
	for _, tc := range refused {
		t.Run("refused/"+tc.name, func(t *testing.T) {
			st := buildSmallDIT(t)
			csn, n := st.LastCSN(), st.Len()
			if err := tc.op(st); !errors.Is(err, ErrSchema) {
				t.Fatalf("err = %v, want ErrSchema", err)
			}
			if st.LastCSN() != csn || st.Len() != n {
				t.Errorf("refused op changed the store: CSN %d→%d, %d→%d entries", csn, st.LastCSN(), n, st.Len())
			}
			if e, _ := st.Get(person); !e.HasObjectClass("person") {
				t.Errorf("refused op stripped %s: %s", person, e)
			}
		})
	}

	// A replica's attribute-selected images: no objectclass, no parents.
	image := func(d, sn string) *entry.Entry { return entry.New(dn.MustParse(d)).Put("sn", sn) }
	accepted := []struct {
		name string
		op   func(st *Store) error
	}{
		{"upsert", func(st *Store) error { return st.Upsert(image("cn=b,o=xyz", "b")) }},
		{"patch", func(st *Store) error { return st.ApplyOwned([]SyncOp{{Patch: image("cn=a,o=xyz", "a2")}}) }},
		{"move", func(st *Store) error {
			return st.ApplyOwned([]SyncOp{{Patch: image("cn=a2,o=xyz", "a2"), From: dn.MustParse("cn=a,o=xyz")}})
		}},
	}
	for _, tc := range accepted {
		t.Run("accepted/"+tc.name, func(t *testing.T) {
			st, err := NewStore([]string{""})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Upsert(image("cn=a,o=xyz", "a")); err != nil {
				t.Fatal(err)
			}
			csn := st.LastCSN()
			if err := tc.op(st); err != nil {
				t.Fatal(err)
			}
			if st.LastCSN() == csn {
				t.Error("nothing committed")
			}
		})
	}
}

func TestDelete(t *testing.T) {
	st := buildSmallDIT(t)
	country := dn.MustParse("c=us,o=xyz")
	if err := st.Delete(country); !errors.Is(err, ErrNotLeaf) {
		t.Errorf("delete non-leaf: %v", err)
	}
	person := dn.MustParse("cn=John Doe,ou=research,c=us,o=xyz")
	if err := st.Delete(person); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(person); ok {
		t.Error("entry still present after delete")
	}
	if err := st.Delete(person); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("double delete: %v", err)
	}
	// Index no longer returns it.
	res := mustSearch(t, st, "o=xyz", query.ScopeSubtree, "(serialnumber=0456)")
	if len(res.Entries) != 0 {
		t.Error("deleted entry still found via index")
	}
}

func TestModify(t *testing.T) {
	st := buildSmallDIT(t)
	d := dn.MustParse("cn=John Doe,ou=research,c=us,o=xyz")
	err := st.Modify(d, []Mod{
		{Op: ModReplace, Attr: "mail", Values: []string{"jdoe@us.xyz.com"}},
		{Op: ModAdd, Attr: "telephoneNumber", Values: []string{"1234"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := st.Get(d)
	if e.First("mail") != "jdoe@us.xyz.com" || e.First("telephoneNumber") != "1234" {
		t.Errorf("modify not applied: %s", e)
	}
	if err := st.Modify(d, []Mod{{Op: ModDelete, Attr: "nosuch"}}); err == nil {
		t.Error("deleting absent attribute must fail")
	}
	// Replace with no values removes the attribute.
	if err := st.Modify(d, []Mod{{Op: ModReplace, Attr: "telephoneNumber"}}); err != nil {
		t.Fatal(err)
	}
	e, _ = st.Get(d)
	if e.Has("telephoneNumber") {
		t.Error("replace-with-nothing did not remove attribute")
	}
}

// TestApplyMods pins the one modify rule the store, the edge-write overlay
// and a patch's image all apply.
func TestApplyMods(t *testing.T) {
	cases := []struct {
		name  string
		mods  []Mod
		want  map[string][]string // attribute -> values after; nil = absent
		fails bool
		is    error // the error fails wraps, if a sentinel names it
	}{
		{"add merges, dropping values already held", []Mod{{Op: ModAdd, Attr: "cn", Values: []string{"A", "b"}}},
			map[string][]string{"cn": {"a", "b"}}, false, nil},
		{"replace sets the values", []Mod{{Op: ModReplace, Attr: "mail", Values: []string{"x", "y"}}},
			map[string][]string{"mail": {"x", "y"}}, false, nil},
		{"replace with no values removes", []Mod{{Op: ModReplace, Attr: "mail"}, {Op: ModReplace, Attr: "nosuch"}},
			map[string][]string{"mail": nil, "nosuch": nil}, false, nil},
		{"delete of a value the attribute lacks is no error", []Mod{{Op: ModDelete, Attr: "mail", Values: []string{"z"}}},
			map[string][]string{"mail": {"m1", "m2"}}, false, nil},
		{"delete of the last value removes the attribute", []Mod{{Op: ModDelete, Attr: "mail", Values: []string{"M1", "m2"}}},
			map[string][]string{"mail": nil}, false, nil},
		{"delete of an absent attribute errors and stops", []Mod{
			{Op: ModAdd, Attr: "sn", Values: []string{"s"}},
			{Op: ModDelete, Attr: "nosuch"},
			{Op: ModAdd, Attr: "cn", Values: []string{"after"}},
		}, map[string][]string{"sn": {"s"}, "cn": {"a"}}, true, entry.ErrNoSuchAttribute},
		{"unknown op errors", []Mod{{Op: ModOp(9), Attr: "cn", Values: []string{"x"}}},
			map[string][]string{"cn": {"a"}}, true, nil},
	}
	for _, tc := range cases {
		e := entry.New(dn.MustParse("cn=a,o=xyz"))
		e.Put("cn", "a").Put("mail", "m1", "m2")
		err := ApplyMods(e, tc.mods)
		if (err != nil) != tc.fails || tc.is != nil && !errors.Is(err, tc.is) {
			t.Errorf("%s: error %v", tc.name, err)
		}
		for attr, want := range tc.want {
			if got := e.Values(attr); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: %s = %q, want %q", tc.name, attr, got, want)
			}
		}
	}
}

func TestModifyUpdatesIndex(t *testing.T) {
	st := buildSmallDIT(t, WithIndexes("serialnumber"))
	d := dn.MustParse("cn=John Doe,ou=research,c=us,o=xyz")
	if err := st.Modify(d, []Mod{{Op: ModReplace, Attr: "serialNumber", Values: []string{"0999"}}}); err != nil {
		t.Fatal(err)
	}
	res := mustSearch(t, st, "o=xyz", query.ScopeSubtree, "(serialnumber=0999)")
	if len(res.Entries) != 1 {
		t.Errorf("new value not indexed: %d", len(res.Entries))
	}
	res = mustSearch(t, st, "o=xyz", query.ScopeSubtree, "(serialnumber=0456)")
	if len(res.Entries) != 0 {
		t.Errorf("old value still indexed: %d", len(res.Entries))
	}
}

func TestModifyDNRename(t *testing.T) {
	st := buildSmallDIT(t)
	old := dn.MustParse("cn=Fred Jones,c=us,o=xyz")
	if err := st.ModifyDN(old, dn.RDN{Attr: "cn", Value: "Freddy Jones"}, dn.MustParse("c=us,o=xyz")); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(old); ok {
		t.Error("old DN still present")
	}
	e, ok := st.Get(dn.MustParse("cn=Freddy Jones,c=us,o=xyz"))
	if !ok {
		t.Fatal("new DN missing")
	}
	if !e.HasValue("cn", "Freddy Jones") {
		t.Errorf("naming attribute not updated: %v", e.Values("cn"))
	}
}

func TestModifyDNSubtreeMove(t *testing.T) {
	st := buildSmallDIT(t)
	// Move ou=research under a new ou=labs parent.
	labs := entry.New(dn.MustParse("ou=labs,o=xyz"))
	labs.Put("objectclass", "organizationalUnit").Put("ou", "labs")
	if err := st.Add(labs); err != nil {
		t.Fatal(err)
	}
	old := dn.MustParse("ou=research,c=us,o=xyz")
	if err := st.ModifyDN(old, dn.RDN{Attr: "ou", Value: "research"}, dn.MustParse("ou=labs,o=xyz")); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(dn.MustParse("cn=John Doe,ou=research,c=us,o=xyz")); ok {
		t.Error("descendant not moved")
	}
	if _, ok := st.Get(dn.MustParse("cn=John Doe,ou=research,ou=labs,o=xyz")); !ok {
		t.Error("descendant missing at new location")
	}
	// Search finds the person at the new location via index and scan alike.
	res := mustSearch(t, st, "ou=labs,o=xyz", query.ScopeSubtree, "(sn=Doe)")
	if len(res.Entries) != 1 {
		t.Errorf("search after move: %d entries", len(res.Entries))
	}
}

func TestModifyDNErrors(t *testing.T) {
	st := buildSmallDIT(t)
	if err := st.ModifyDN(dn.MustParse("cn=missing,o=xyz"), dn.RDN{Attr: "cn", Value: "x"}, dn.MustParse("o=xyz")); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("rename missing: %v", err)
	}
	// Moving an entry under itself must fail.
	if err := st.ModifyDN(dn.MustParse("c=us,o=xyz"), dn.RDN{Attr: "c", Value: "us"}, dn.MustParse("ou=research,c=us,o=xyz")); err == nil {
		t.Error("move under self must fail")
	}
	// Target collision.
	if err := st.ModifyDN(dn.MustParse("cn=Fred Jones,c=us,o=xyz"), dn.RDN{Attr: "cn", Value: "Carl Miller"}, dn.MustParse("ou=research,c=us,o=xyz")); !errors.Is(err, ErrAlreadyExists) {
		t.Errorf("collision: %v", err)
	}
}

func TestJournal(t *testing.T) {
	st := buildSmallDIT(t)
	start := st.LastCSN()
	d := dn.MustParse("cn=Fred Jones,c=us,o=xyz")
	if err := st.Modify(d, []Mod{{Op: ModReplace, Attr: "mail", Values: []string{"f@x"}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(d); err != nil {
		t.Fatal(err)
	}
	changes, ok := st.ChangesSince(start)
	if !ok {
		t.Fatal("journal trimmed unexpectedly")
	}
	if len(changes) != 2 {
		t.Fatalf("changes = %d, want 2", len(changes))
	}
	if changes[0].Type != ChangeModify || changes[0].Before == nil || changes[0].After == nil {
		t.Errorf("modify change malformed: %+v", changes[0])
	}
	if changes[0].Before.First("mail") == changes[0].After.First("mail") {
		t.Error("before/after snapshots identical")
	}
	if changes[1].Type != ChangeDelete || changes[1].Before == nil {
		t.Errorf("delete change malformed: %+v", changes[1])
	}
	if changes[0].CSN >= changes[1].CSN {
		t.Error("CSNs not increasing")
	}
}

func TestJournalTrim(t *testing.T) {
	st := buildSmallDIT(t, WithJournalLimit(3))
	d := dn.MustParse("cn=Fred Jones,c=us,o=xyz")
	for i := 0; i < 6; i++ {
		if err := st.Modify(d, []Mod{{Op: ModReplace, Attr: "mail", Values: []string{fmt.Sprintf("f%d@x", i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := st.ChangesSince(0); ok {
		t.Error("expected trimmed journal to report ok=false for ancient CSN")
	}
	changes, ok := st.ChangesSince(st.LastCSN() - 2)
	if !ok || len(changes) != 2 {
		t.Errorf("recent span: ok=%v len=%d", ok, len(changes))
	}
}

// TestBoundedJournalModifyAllocs gates what a bounded journal costs a
// commit once it is full: the bytes one Modify allocates at the default
// limit of 4096 records stay within twice those of an unbounded store.
// Trimming by copying every kept record into a new array cost a copy of the
// whole journal per commit (≈ 1.3 MB per Modify at 4096).
func TestBoundedJournalModifyAllocs(t *testing.T) {
	const limit, n = 4096, 4096
	perModify := func(opts ...Option) float64 {
		st := buildSmallDIT(t, opts...)
		d := dn.MustParse("cn=Fred Jones,c=us,o=xyz")
		modify := func(i int) {
			if err := st.Modify(d, []Mod{{Op: ModReplace, Attr: "mail", Values: []string{fmt.Sprintf("f%d@x", i)}}}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < limit+1; i++ { // past the bound: the journal is full
			modify(i)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			modify(i)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	unbounded, bounded := perModify(), perModify(WithJournalLimit(limit))
	t.Logf("Modify on a full journal: %.0f B of allocations at limit %d, %.0f B unbounded", bounded, limit, unbounded)
	if bounded > 2*unbounded {
		t.Errorf("a Modify allocates %.0f B at journal limit %d, gate is 2× the unbounded store's %.0f B", bounded, limit, unbounded)
	}
}

func TestChangeSignal(t *testing.T) {
	st := buildSmallDIT(t)
	sig := st.ChangeSignal()
	select {
	case <-sig:
		t.Fatal("signal fired before change")
	default:
	}
	d := dn.MustParse("cn=Fred Jones,c=us,o=xyz")
	if err := st.Modify(d, []Mod{{Op: ModReplace, Attr: "mail", Values: []string{"x@y"}}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sig:
	default:
		t.Fatal("signal did not fire after change")
	}
}

func TestUpsertAndRemoveSparse(t *testing.T) {
	st, err := NewStore([]string{""}) // whole-DIT replica store
	if err != nil {
		t.Fatal(err)
	}
	// Upsert an entry with no parents present (sparse content).
	e := entry.New(dn.MustParse("cn=John Doe,ou=research,c=us,o=xyz"))
	e.Put("objectclass", "person").Put("cn", "John Doe").Put("sn", "Doe").Put("serialnumber", "0456")
	if err := st.Upsert(e); err != nil {
		t.Fatal(err)
	}
	q := query.MustNew("", query.ScopeSubtree, "(serialnumber=0456)")
	if got := st.MatchAll(q); len(got) != 1 {
		t.Fatalf("MatchAll = %d entries", len(got))
	}
	// Upsert again replaces.
	e.Put("mail", "j@x")
	if err := st.Upsert(e); err != nil {
		t.Fatal(err)
	}
	if got := st.MatchAll(q); len(got) != 1 || got[0].First("mail") != "j@x" {
		t.Fatalf("upsert replace failed: %v", got)
	}
	remove := []SyncOp{{Remove: e.DN()}}
	if err := st.ApplyOwned(remove); err != nil {
		t.Fatal(err)
	}
	if got := st.MatchAll(q); len(got) != 0 {
		t.Error("entry still present after its removal")
	}
	last := st.LastCSN()
	if err := st.ApplyOwned(remove); err != nil || st.LastCSN() != last {
		t.Errorf("removing the absent entry: %v, CSN %d -> %d; want it skipped", err, last, st.LastCSN())
	}
}

func TestMatchAllScope(t *testing.T) {
	st := buildSmallDIT(t)
	got := st.MatchAll(query.MustNew("c=us,o=xyz", query.ScopeSingleLevel, "(objectclass=*)"))
	if len(got) != 2 {
		t.Errorf("one-level MatchAll = %d, want 2", len(got))
	}
	got = st.MatchAll(query.MustNew("ou=research,c=us,o=xyz", query.ScopeSubtree, "(sn=*)"))
	if len(got) != 2 {
		t.Errorf("subtree MatchAll = %d, want 2", len(got))
	}
}

// TestIndexedSearchMatchesScan pins the search region on a DIT holding
// referral objects: an indexed store answers every query, scope and base
// with the same entries, in the same order, and the same referrals as a
// store without indexes. Entries below a referral and a referral below
// another are outside every region.
func TestIndexedSearchMatchesScan(t *testing.T) {
	withReferrals := func(opts ...Option) *Store {
		st := buildSmallDIT(t, opts...)
		for _, e := range []*entry.Entry{
			entry.New(dn.MustParse("ou=labs,c=us,o=xyz")).
				Put("objectclass", ReferralClass).Put(RefAttr, "ldap://hostB/ou=labs,c=us,o=xyz"),
			entry.New(dn.MustParse("cn=Lab Doe,ou=labs,c=us,o=xyz")).
				Put("objectclass", "person").Put("cn", "Lab Doe").Put("sn", "Doe").Put("serialNumber", "0458"),
			entry.New(dn.MustParse("ou=deep,ou=labs,c=us,o=xyz")).
				Put("objectclass", ReferralClass).Put(RefAttr, "ldap://hostD/ou=deep,ou=labs,c=us,o=xyz"),
			entry.New(dn.MustParse("c=in,o=xyz")).
				Put("objectclass", ReferralClass).Put(RefAttr, "ldap://hostC/c=in,o=xyz"),
		} {
			if err := st.Add(e); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	plain := withReferrals()
	indexed := withReferrals(WithIndexes("serialnumber", "sn", "mail"))
	render := func(res *Result) string {
		var b strings.Builder
		for _, e := range res.Entries {
			b.WriteString(e.DN().String() + "; ")
		}
		return b.String() + "refs " + strings.Join(res.Referrals, " ")
	}
	queries := []string{
		"(serialnumber=0456)",
		"(serialnumber=04*)",
		"(sn=Doe)",
		"(&(sn=Doe)(serialnumber=0456))",
		"(|(sn=Doe)(sn=Miller))",
		"(mail=*@us.xyz.com)",
		"(&(objectclass=person)(serialnumber=05*))",
		"(objectclass=*)",
	}
	for _, base := range []string{"o=xyz", "c=us,o=xyz", "ou=labs,c=us,o=xyz"} {
		for _, scope := range []query.Scope{query.ScopeBase, query.ScopeSingleLevel, query.ScopeSubtree} {
			for _, f := range queries {
				a := render(mustSearch(t, plain, base, scope, f))
				b := render(mustSearch(t, indexed, base, scope, f))
				if a != b {
					t.Errorf("base %s scope %v filter %s:\n plain   %s\n indexed %s", base, scope, f, a, b)
				}
			}
		}
	}
	// The region itself: John Doe, not Lab Doe below ou=labs; the two
	// referrals the suffix reaches, not ou=deep below ou=labs; a referral
	// base is its own URL.
	for _, c := range []struct {
		base  string
		scope query.Scope
		f     string
		want  string
	}{
		{"o=xyz", query.ScopeSubtree, "(sn=Doe)",
			"cn=John Doe,ou=research,c=us,o=xyz; refs ldap://hostB/ou=labs,c=us,o=xyz ldap://hostC/c=in,o=xyz"},
		{"c=us,o=xyz", query.ScopeSingleLevel, "(objectclass=*)",
			"cn=Fred Jones,c=us,o=xyz; ou=research,c=us,o=xyz; refs ldap://hostB/ou=labs,c=us,o=xyz"},
		{"ou=labs,c=us,o=xyz", query.ScopeSubtree, "(sn=Doe)", "refs ldap://hostB/ou=labs,c=us,o=xyz"},
	} {
		if got := render(mustSearch(t, indexed, c.base, c.scope, c.f)); got != c.want {
			t.Errorf("base %s scope %v filter %s = %s, want %s", c.base, c.scope, c.f, got, c.want)
		}
	}
}

func TestIndexPrefixAfterChurn(t *testing.T) {
	st, err := NewStore([]string{"o=xyz"}, WithIndexes("serialnumber"))
	if err != nil {
		t.Fatal(err)
	}
	org := entry.New(dn.MustParse("o=xyz"))
	org.Put("objectclass", "organization").Put("o", "xyz")
	if err := st.Add(org); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		e := entry.New(dn.MustParse(fmt.Sprintf("cn=p%d,o=xyz", i)))
		e.Put("objectclass", "person").Put("cn", fmt.Sprintf("p%d", i)).
			Put("sn", "x").Put("serialnumber", fmt.Sprintf("%04d", i))
		if err := st.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	// Delete every third entry, then query prefixes.
	for i := 0; i < 200; i += 3 {
		if err := st.Delete(dn.MustParse(fmt.Sprintf("cn=p%d,o=xyz", i))); err != nil {
			t.Fatal(err)
		}
	}
	res := mustSearch(t, st, "o=xyz", query.ScopeSubtree, "(serialnumber=001*)")
	want := 0
	for i := 10; i <= 19; i++ {
		if i%3 != 0 {
			want++
		}
	}
	if len(res.Entries) != want {
		t.Errorf("prefix after churn: got %d, want %d", len(res.Entries), want)
	}
}

func TestLoadBulk(t *testing.T) {
	st, err := NewStore([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	var batch []*entry.Entry
	org := entry.New(dn.MustParse("o=xyz"))
	org.Put("objectclass", "organization").Put("o", "xyz")
	batch = append(batch, org)
	for i := 0; i < 50; i++ {
		e := entry.New(dn.MustParse(fmt.Sprintf("cn=p%d,o=xyz", i)))
		e.Put("objectclass", "person").Put("cn", fmt.Sprintf("p%d", i)).Put("sn", "x")
		batch = append(batch, e)
	}
	if err := st.Load(batch); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 51 {
		t.Errorf("Len = %d, want 51", st.Len())
	}
	if st.LastCSN() != 0 {
		t.Errorf("Load must not journal, LastCSN = %d", st.LastCSN())
	}
}

// TestLoadTakesOwnership: Load stores the caller's entries themselves,
// frozen, not frozen clones of them; a read that does not clone hands the
// same objects back.
func TestLoadTakesOwnership(t *testing.T) {
	st, err := NewStore([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	org := entry.New(dn.MustParse("o=xyz")).Put("objectclass", "organization").Put("o", "xyz")
	kid := entry.New(dn.MustParse("cn=p,o=xyz")).Put("objectclass", "person").Put("cn", "p")
	if err := st.Load([]*entry.Entry{org, kid}); err != nil {
		t.Fatal(err)
	}
	if !org.Frozen() || !kid.Frozen() {
		t.Fatalf("loaded entries frozen: %v %v", org.Frozen(), kid.Frozen())
	}
	stored := st.MatchAll(query.MustNew("o=xyz", query.ScopeSubtree, "(objectclass=*)"))
	if len(stored) != 2 {
		t.Fatalf("%d entries stored", len(stored))
	}
	for _, e := range stored {
		if e != org && e != kid {
			t.Errorf("%s is stored as a copy, not the entry Load was given", e.DN().String())
		}
	}
}

// BenchmarkSearchIndexed measures the two search paths the sharded store
// optimizes, each across shard counts: "point" is an indexed equality hit
// (10k entries, answered from the attribute index without a tree walk);
// "scan" is an unindexed filter over the same population, which the store
// evaluates with one goroutine per shard once the view is large enough.
func BenchmarkSearchIndexed(b *testing.B) {
	build := func(shards int) *Store {
		st, _ := NewStore([]string{"o=xyz"}, WithShards(shards), WithIndexes("serialnumber"))
		org := entry.New(dn.MustParse("o=xyz"))
		org.Put("objectclass", "organization").Put("o", "xyz")
		_ = st.Add(org)
		// 40k entries makes a full scan cost tens of milliseconds, so one
		// scan iteration is not lost in scheduler noise.
		var batch []*entry.Entry
		for i := 0; i < 40000; i++ {
			e := entry.New(dn.MustParse(fmt.Sprintf("cn=p%d,o=xyz", i)))
			e.Put("objectclass", "person").Put("cn", fmt.Sprintf("p%d", i)).
				Put("sn", "x").Put("serialnumber", fmt.Sprintf("%06d", i))
			batch = append(batch, e)
		}
		_ = st.Load(batch)
		return st
	}
	point := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=005000)")
	scan := query.MustNew("o=xyz", query.ScopeSubtree, "(cn=p5000)")
	for _, shards := range []int{1, 2, 8} {
		st := build(shards)
		b.Run(fmt.Sprintf("point/shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := st.Search(point)
				if err != nil || len(res.Entries) != 1 {
					b.Fatalf("res=%v err=%v", res, err)
				}
			}
		})
		b.Run(fmt.Sprintf("scan/shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := st.Search(scan)
				if err != nil || len(res.Entries) != 1 {
					b.Fatalf("res=%v err=%v", res, err)
				}
			}
		})
	}
}

func BenchmarkSearchScanVsIndex(b *testing.B) {
	build := func(opts ...Option) *Store {
		st, _ := NewStore([]string{"o=xyz"}, opts...)
		org := entry.New(dn.MustParse("o=xyz"))
		org.Put("objectclass", "organization").Put("o", "xyz")
		_ = st.Add(org)
		var batch []*entry.Entry
		for i := 0; i < 5000; i++ {
			e := entry.New(dn.MustParse(fmt.Sprintf("cn=p%d,o=xyz", i)))
			e.Put("objectclass", "person").Put("cn", fmt.Sprintf("p%d", i)).
				Put("sn", "x").Put("serialnumber", fmt.Sprintf("%06d", i))
			batch = append(batch, e)
		}
		_ = st.Load(batch)
		return st
	}
	q := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=002500)")
	b.Run("scan", func(b *testing.B) {
		st := build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Search(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		st := build(WithIndexes("serialnumber"))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Search(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestJournalAliasesFrozenStoredEntry pins the ownership contract of the
// commit sites: the journal's After image is the stored entry itself — not a
// second copy of it — and that object is frozen, so every mutator refuses
// it. The caller's own entry stays mutable (the store froze a copy), except
// on the owned path, which takes the caller's entry as it is.
func TestJournalAliasesFrozenStoredEntry(t *testing.T) {
	st, err := NewStore([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	all := query.MustNew("", query.ScopeSubtree, "(objectclass=*)")
	stored := func(d dn.DN) *entry.Entry {
		t.Helper()
		for _, e := range st.MatchAll(all) {
			if e.DN().Equal(d) {
				return e
			}
		}
		t.Fatalf("%s not stored", d.String())
		return nil
	}
	lastAfter := func() *entry.Entry {
		t.Helper()
		changes, ok := st.ChangesSince(st.LastCSN() - 1)
		if !ok || len(changes) != 1 {
			t.Fatalf("journal tail: ok=%v len=%d", ok, len(changes))
		}
		return changes[0].After
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a frozen entry did not panic", name)
			}
		}()
		fn()
	}
	check := func(site string, d dn.DN) {
		t.Helper()
		got, after := stored(d), lastAfter()
		if got != after {
			t.Errorf("%s: journal After and the stored entry are different objects", site)
		}
		if !got.Frozen() {
			t.Fatalf("%s: stored entry is not frozen", site)
		}
		mustPanic(site+": Put", func() { got.Put("mail", "x@y") })
		mustPanic(site+": Add", func() { got.Add("mail", "x@y") })
		mustPanic(site+": DeleteValues", func() { _ = got.DeleteValues("cn") })
		mustPanic(site+": SetDN", func() { got.SetDN(dn.MustParse("cn=elsewhere")) })
	}

	org := entry.New(dn.MustParse("o=xyz"))
	org.Put("objectclass", "organization").Put("o", "xyz")
	if err := st.Add(org); err != nil {
		t.Fatal(err)
	}
	check("add", org.DN())
	org.Put("description", "the caller's entry stays the caller's") // must not panic

	if err := st.Modify(org.DN(), []Mod{{Op: ModReplace, Attr: "description", Values: []string{"d"}}}); err != nil {
		t.Fatal(err)
	}
	check("modify", org.DN())

	kid := entry.New(dn.MustParse("cn=a,o=xyz"))
	kid.Put("objectclass", "person").Put("cn", "a")
	if err := st.Upsert(kid); err != nil {
		t.Fatal(err)
	}
	check("upsert (new)", kid.DN())
	kid.Put("sn", "a")
	if err := st.Upsert(kid); err != nil {
		t.Fatal(err)
	}
	check("upsert (replace)", kid.DN())

	if err := st.ModifyDN(kid.DN(), dn.RDN{Attr: "cn", Value: "b"}, org.DN()); err != nil {
		t.Fatal(err)
	}
	check("modifyDN", dn.MustParse("cn=b,o=xyz"))

	owned := entry.New(dn.MustParse("cn=c,o=xyz"))
	owned.Put("objectclass", "person").Put("cn", "c")
	if err := st.ApplyOwned([]SyncOp{{Put: owned}, {Remove: dn.MustParse("cn=b,o=xyz")}}); err != nil {
		t.Fatal(err)
	}
	if got := stored(owned.DN()); got != owned {
		t.Error("owned batch: the store copied an entry it was given to keep")
	}
	mustPanic("owned batch: Put on the handed-over entry", func() { owned.Put("sn", "c") })
	if n := len(st.MatchAll(all)); n != 2 {
		t.Errorf("owned batch: %d entries held, want 2 (o=xyz, cn=c)", n)
	}
}

// TestApplyOwnedIsOneBatch: a content batch is one pass through the commit
// pipeline — one change signal — with one journal record and CSN per action.
func TestApplyOwnedIsOneBatch(t *testing.T) {
	st, err := NewStore([]string{""})
	if err != nil {
		t.Fatal(err)
	}
	var ops []SyncOp
	for i := 0; i < 100; i++ {
		e := entry.New(dn.MustParse(fmt.Sprintf("cn=p%03d,o=xyz", i)))
		e.Put("objectclass", "person").Put("cn", fmt.Sprintf("p%03d", i))
		ops = append(ops, SyncOp{Put: e})
	}
	ops = append(ops, SyncOp{Remove: dn.MustParse("cn=absent,o=xyz")}) // skipped, not an error
	before := st.Counters().Snapshot()
	if err := st.ApplyOwned(ops); err != nil {
		t.Fatal(err)
	}
	after := st.Counters().Snapshot()
	if got := after.Batches - before.Batches; got != 1 {
		t.Errorf("commit batches = %d, want 1", got)
	}
	changes, ok := st.ChangesSince(0)
	if !ok || len(changes) != 100 {
		t.Fatalf("journal: ok=%v records=%d, want 100", ok, len(changes))
	}
	for i, c := range changes {
		if c.CSN != CSN(i+1) || c.Type != ChangeAdd {
			t.Fatalf("record %d: csn=%d type=%v", i, c.CSN, c.Type)
		}
	}
}

// TestBoundedJournalBatchAllocs: a batch far larger than a bounded journal
// — a reload landing at a leaf — trims in batch once the journal reaches
// twice its limit, so it allocates at most twice the limit in records. It
// used to reserve one record per op and trim only at the batch's end,
// building a whole reload's records to clear them, and the store then kept
// the reload-sized array. The store with an unreachable limit reserves one
// record per op: the bounded one must allocate those records' bytes less,
// but for twice its limit in records (and an eighth more, for the
// allocator's rounding of the array to a size class).
func TestBoundedJournalBatchAllocs(t *testing.T) {
	const limit, n = 64, 3000
	batch := func(journalLimit int) (uint64, *Store) {
		st, err := NewStore([]string{"o=xyz"}, WithJournalLimit(journalLimit))
		if err != nil {
			t.Fatal(err)
		}
		ops := make([]SyncOp, n)
		for i := range ops {
			ops[i].Put = entry.New(dn.MustParse(fmt.Sprintf("cn=e%d,o=xyz", i))).Put("cn", fmt.Sprintf("e%d", i))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := st.ApplyOwned(ops); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, st
	}
	least := func(journalLimit int) (uint64, *Store) {
		best, st := batch(journalLimit)
		for run := 0; run < 2; run++ {
			if b, s := batch(journalLimit); b < best {
				best, st = b, s
			}
		}
		return best, st
	}
	bounded, st := least(limit)
	unbounded, _ := least(1 << 20)
	record := uint64(unsafe.Sizeof(Change{}))
	t.Logf("a %d-op batch: %d B of allocations at journal limit %d, %d B where the limit is never reached (%d B a record)",
		n, bounded, limit, unbounded, record)
	if journal, most := int64(n*record)-(int64(unbounded)-int64(bounded)), int64(2*limit*record*9/8); journal > most {
		t.Errorf("the bounded store's journal allocated about %d B, gate is %d B (twice its limit in records)", journal, most)
	}
	if len(st.journal) != limit || cap(st.journal) > 2*limit {
		t.Errorf("journal after the batch: len %d cap %d, want len %d within %d", len(st.journal), cap(st.journal), limit, 2*limit)
	}
}

// TestModifyAllocs gates what a one-attribute Modify of a Table-1 employee
// costs once the journal is full: the held entry is copied once, into a
// buffer and a table with room for what the mod adds: 10 allocations and
// 1,741 B. It used to be copied at its live size and then again, into a
// buffer of twice that, by the mod's Put: 11 allocations and 3,069 B.
func TestModifyAllocs(t *testing.T) {
	st, err := NewStore([]string{"o=xyz"}, WithJournalLimit(64))
	if err != nil {
		t.Fatal(err)
	}
	d := dn.MustParse("cn=emp us 17,c=us,o=xyz")
	if err := st.Load([]*entry.Entry{
		entry.New(dn.MustParse("o=xyz")).Put("objectclass", "organization"),
		entry.New(dn.MustParse("c=us,o=xyz")).Put("objectclass", "country"),
		employee(d, 17),
	}); err != nil {
		t.Fatal(err)
	}
	mods := []Mod{{Op: ModReplace, Attr: "telephoneNumber", Values: []string{"555-0199"}}}
	modify := func() {
		if err := st.Modify(d, mods); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ { // past the bound: the journal is full
		modify()
	}
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		modify()
	}
	runtime.ReadMemStats(&after)
	allocs := testing.AllocsPerRun(n, modify)
	t.Logf("one-attribute Modify of a Table-1 employee: %.0f allocations, %.0f B",
		allocs, float64(after.TotalAlloc-before.TotalAlloc)/n)
	if allocs > 10 {
		t.Errorf("a Modify allocates %.0f times, gate is 10", allocs)
	}
}
