package entry

import (
	"testing"
	"testing/quick"

	"filterdir/internal/dn"
)

func person(t *testing.T) *Entry {
	t.Helper()
	e := New(dn.MustParse("cn=John Doe,ou=research,c=us,o=xyz"))
	e.Put("cn", "John Doe", "John M Doe")
	e.Put("sn", "Doe")
	e.Put("objectclass", "top", "person", "organizationalPerson", "inetOrgPerson")
	e.Put("telephoneNumber", "2618-2618")
	e.Put("mail", "john@us.xyz.com")
	e.Put("serialNumber", "0456")
	e.Put("departmentNumber", "80")
	return e
}

func TestPutAddDelete(t *testing.T) {
	e := person(t)
	if got := e.First("sn"); got != "Doe" {
		t.Errorf("First(sn) = %q", got)
	}
	if !e.Has("SERIALNUMBER") {
		t.Error("attribute names must be case-insensitive")
	}
	e.Add("cn", "john doe") // duplicate, case-insensitive
	if n := len(e.Values("cn")); n != 2 {
		t.Errorf("duplicate Add changed value count: %d", n)
	}
	e.Add("cn", "Johnny")
	if n := len(e.Values("cn")); n != 3 {
		t.Errorf("Add failed: %d values", n)
	}
	if err := e.DeleteValues("cn", "Johnny"); err != nil {
		t.Fatal(err)
	}
	if n := len(e.Values("cn")); n != 2 {
		t.Errorf("DeleteValues failed: %d values", n)
	}
	if err := e.DeleteValues("telephoneNumber"); err != nil {
		t.Fatal(err)
	}
	if e.Has("telephoneNumber") {
		t.Error("attribute not removed")
	}
	if err := e.DeleteValues("nosuch"); err == nil {
		t.Error("expected ErrNoSuchAttribute")
	}
	// Deleting all values one by one removes the attribute.
	if err := e.DeleteValues("sn", "doe"); err != nil {
		t.Fatal(err)
	}
	if e.Has("sn") {
		t.Error("attribute with no values must disappear")
	}
}

func TestCloneIsDeep(t *testing.T) {
	e := person(t)
	c := e.Clone()
	c.Put("sn", "Smith")
	c.Add("cn", "Other")
	if e.First("sn") != "Doe" {
		t.Error("Clone is not deep: sn leaked")
	}
	if len(e.Values("cn")) != 2 {
		t.Error("Clone is not deep: cn leaked")
	}
	if !e.Clone().Equal(e) {
		t.Error("Clone must Equal original")
	}
}

func TestSelect(t *testing.T) {
	e := person(t)
	sel := e.Select([]string{"cn", "mail"})
	if !sel.Has("cn") || !sel.Has("mail") || sel.Has("sn") {
		t.Errorf("Select wrong attrs: %v", sel.AttributeNames())
	}
	all := e.Select([]string{"*"})
	if len(all.AttributeNames()) != len(e.AttributeNames()) {
		t.Error("Select(*) must keep all attributes")
	}
	none := e.Select(nil)
	if len(none.AttributeNames()) != len(e.AttributeNames()) {
		t.Error("Select(nil) must keep all attributes")
	}
}

func TestEqual(t *testing.T) {
	a, b := person(t), person(t)
	if !a.Equal(b) {
		t.Error("identical entries must be equal")
	}
	b.Put("sn", "DOE") // case-insensitive value
	if !a.Equal(b) {
		t.Error("value case must not affect equality")
	}
	b.Put("sn", "Smith")
	if a.Equal(b) {
		t.Error("different values must not be equal")
	}
	c := person(t)
	c.Put("extra", "x")
	if a.Equal(c) {
		t.Error("extra attribute must break equality")
	}
}

func TestByteSize(t *testing.T) {
	e := person(t)
	s := e.ByteSize()
	if s <= 0 {
		t.Fatalf("ByteSize = %d", s)
	}
	e.Put("description", string(make([]byte, 1000)))
	if e.ByteSize() < s+1000 {
		t.Errorf("ByteSize did not grow with payload: %d -> %d", s, e.ByteSize())
	}
}

func TestMatchingRules(t *testing.T) {
	if !EqualValues("John  Doe", "john doe") {
		t.Error("EqualValues must fold case and spaces")
	}
}

func TestMatchSubstring(t *testing.T) {
	tests := []struct {
		value, initial string
		any            []string
		final          string
		want           bool
	}{
		{"smith", "smi", nil, "", true},
		{"smith", "", nil, "ith", true},
		{"smith", "s", []string{"it"}, "h", true},
		{"smith", "smi", nil, "xx", false},
		{"John Doe", "john", nil, "doe", true},
		{"abcabc", "a", []string{"b", "b"}, "c", true},
		{"abc", "a", []string{"bc"}, "c", false}, // any consumes bc, final c can't match
		{"0456", "04", nil, "", true},
		{"0456", "05", nil, "", false},
		{"anything", "", nil, "", true}, // pure presence-like pattern
	}
	for _, tt := range tests {
		got := MatchSubstring(tt.value, tt.initial, tt.any, tt.final)
		if got != tt.want {
			t.Errorf("MatchSubstring(%q, %q, %v, %q) = %v, want %v",
				tt.value, tt.initial, tt.any, tt.final, got, tt.want)
		}
	}
}

func TestQuickSubstringPrefixConsistent(t *testing.T) {
	// If initial p matches value v, then any shorter prefix of p also matches.
	f := func(v string, n uint8) bool {
		if len(v) == 0 {
			return true
		}
		cut := int(n) % (len(v) + 1)
		p := v[:cut]
		return MatchSubstring(v, p, nil, "") || p != NormValue(p) || v != NormValue(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFrozenEntryContract: a frozen entry refuses every mutator, is shared
// rather than copied by a whole-entry Select, and is left only by Clone.
func TestFrozenEntryContract(t *testing.T) {
	e := person(t)
	if e.Frozen() {
		t.Fatal("new entry is frozen")
	}
	if sel := e.Select(nil); sel == e {
		t.Error("Select of a mutable entry returned the entry itself")
	}
	if e.Freeze() != e || !e.Frozen() {
		t.Fatal("Freeze did not freeze in place")
	}
	for name, mutate := range map[string]func(){
		"Put":          func() { e.Put("mail", "x@y") },
		"Add":          func() { e.Add("mail", "x@y") },
		"DeleteValues": func() { _ = e.DeleteValues("mail") },
		"SetDN":        func() { e.SetDN(dn.MustParse("cn=other")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen entry did not panic", name)
				}
			}()
			mutate()
		}()
	}
	if e.First("mail") != "john@us.xyz.com" {
		t.Error("a refused mutation changed the entry")
	}
	if e.Select(nil) != e || e.Select([]string{"cn", "*"}) != e {
		t.Error("whole-entry Select of a frozen entry made a copy")
	}
	sub := e.Select([]string{"cn", "mail"})
	if sub == e || sub.Frozen() || sub.Has("sn") || len(sub.Values("cn")) != 2 {
		t.Errorf("attribute subset: %s (frozen=%v)", sub, sub.Frozen())
	}
	c := e.Clone()
	if c.Frozen() || !c.Equal(e) {
		t.Fatal("Clone of a frozen entry is frozen or differs")
	}
	c.Put("mail", "new@x") // must not panic, must not reach e
	if e.First("mail") != "john@us.xyz.com" {
		t.Error("mutating a clone changed the frozen original")
	}
}

// TestCloneValuesDoNotSpill: a clone keeps all values in one backing array;
// growing one attribute must reallocate, not overwrite its neighbour.
func TestCloneValuesDoNotSpill(t *testing.T) {
	c := person(t).Clone()
	c.Add("cn", "Johnny", "Jack")
	c.Add("sn", "Doe II")
	want := person(t)
	want.Add("cn", "Johnny", "Jack")
	want.Add("sn", "Doe II")
	if c.String() != want.String() {
		t.Errorf("clone after Add:\n got %s\nwant %s", c, want)
	}
}

// TestAssemble builds the entry the wire decoder builds: Put semantics per
// attribute, names normalized, values taken over without a copy.
func TestAssemble(t *testing.T) {
	vals := []string{"top", "person", "Ann", "first", "second"}
	e := Assemble(dn.MustParse("cn=Ann,o=xyz"),
		[]string{"objectClass", "cn", "mail", " MAIL "}, []int{2, 3, 4, 5}, vals)
	want := New(dn.MustParse("cn=Ann,o=xyz"))
	want.Put("objectclass", "top", "person").Put("cn", "Ann").Put("mail", "second")
	if e.String() != want.String() || !e.Equal(want) {
		t.Errorf("got %s\nwant %s", e, want)
	}
	if names := e.AttributeNames(); len(names) != 3 || names[2] != "mail" {
		t.Errorf("names = %q", names)
	}
	e.Add("objectclass", "inetOrgPerson")
	if e.First("cn") != "Ann" {
		t.Error("Add on one attribute overwrote the next one's value")
	}
	if n, v := e.AttrAt(1); n != "cn" || len(v) != 1 || e.NumAttrs() != 3 {
		t.Errorf("AttrAt(1) = %q %q of %d", n, v, e.NumAttrs())
	}
}
