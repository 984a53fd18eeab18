package dit

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
)

// scanSince is the journal scan ChangesSince used to be: every record
// compared by CSN. The slice by subtraction must return exactly this.
func scanSince(s *Store, after CSN) []Change {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	var out []Change
	for _, c := range s.journal {
		if c.CSN > after {
			out = append(out, c)
		}
	}
	return out
}

// TestChangesSinceMatchesScan: on an untrimmed and on a trimmed journal,
// for every starting CSN from before the first record to past the last, the
// suffix found by subtraction equals the scan, and ok is false exactly when
// the span reaches into trimmed history.
func TestChangesSinceMatchesScan(t *testing.T) {
	for _, limit := range []int{0, 7} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			st, err := NewStore([]string{""}, WithJournalLimit(limit))
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := st.ChangesSince(0); !ok || len(got) != 0 {
				t.Fatalf("empty journal: ok=%v, %d records", ok, len(got))
			}
			for i := 0; i < 25; i++ {
				e := entry.New(dn.MustParse(fmt.Sprintf("cn=p%d,o=xyz", i%5)))
				e.Put("cn", fmt.Sprintf("p%d", i%5)).Put("rev", fmt.Sprint(i))
				if err := st.Upsert(e); err != nil {
					t.Fatal(err)
				}
			}
			trimmed := CSN(st.JournalTrimmed())
			if (limit > 0) != (trimmed > 0) {
				t.Fatalf("limit %d trimmed %d records", limit, trimmed)
			}
			for after := CSN(0); after <= st.LastCSN()+2; after++ {
				got, ok := st.ChangesSince(after)
				if wantOK := after >= trimmed; ok != wantOK {
					t.Fatalf("after=%d: ok=%v, want %v (trimmed through %d)", after, ok, wantOK, trimmed)
				}
				if !ok {
					continue
				}
				want := scanSince(st, after)
				if len(got) != len(want) {
					t.Fatalf("after=%d: %d records, scan finds %d", after, len(got), len(want))
				}
				for i := range got {
					if got[i].CSN != want[i].CSN || got[i].After != want[i].After {
						t.Fatalf("after=%d record %d: csn %d, scan has %d", after, i, got[i].CSN, want[i].CSN)
					}
				}
			}
		})
	}
}

// TestEveryModifyRecordCarriesMods: a replace of a held entry at a sparse
// store journals the ModReplace list that turns the old image into the new
// one — changed and added attributes with their values, removed ones with
// none, untouched ones not at all — and replaying those mods on the old
// image gives the new one.
func TestEveryModifyRecordCarriesMods(t *testing.T) {
	st, err := NewStore([]string{""})
	if err != nil {
		t.Fatal(err)
	}
	d := dn.MustParse("cn=a,o=xyz")
	v1 := entry.New(d).Put("objectclass", "person").Put("cn", "a").Put("tel", "1").Put("mail", "a@x", "b@x").Put("fax", "9")
	v2 := entry.New(d).Put("objectclass", "person").Put("cn", "a").Put("tel", "2").Put("mail", "b@x", "a@x").Put("pager", "7")
	for _, e := range []*entry.Entry{v1, v2, v2} {
		if err := st.Upsert(e); err != nil {
			t.Fatal(err)
		}
	}
	changes, _ := st.ChangesSince(0)
	if len(changes) != 3 || changes[1].Type != ChangeModify || changes[2].Type != ChangeModify {
		t.Fatalf("journal = %v", changes)
	}
	got := map[string][]string{}
	for _, m := range changes[1].Mods {
		if m.Op != ModReplace {
			t.Errorf("derived mod for %s has op %d, want replace", m.Attr, m.Op)
		}
		got[m.Attr] = m.Values
	}
	// mail differs in order only; that is a change (values are compared
	// exactly), cn is not.
	want := map[string][]string{"tel": {"2"}, "mail": {"b@x", "a@x"}, "pager": {"7"}, "fax": nil}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("derived mods = %v, want %v", got, want)
	}
	if changes[2].Mods == nil || len(changes[2].Mods) != 0 {
		t.Errorf("identical replace journals mods %v, want an empty, non-nil list", changes[2].Mods)
	}

	replay, err := NewStore([]string{""})
	if err != nil {
		t.Fatal(err)
	}
	if err := replay.Upsert(v1); err != nil {
		t.Fatal(err)
	}
	if err := replay.Modify(d, changes[1].Mods); err != nil {
		t.Fatal(err)
	}
	if e, _ := replay.Get(d); !e.Equal(v2) {
		t.Errorf("replayed mods give %s, want %s", e, v2)
	}
}

// TestPatchOp: a Patch action replaces the attributes it carries in the held
// entry (none: removes), leaves the rest, journals a modify naming exactly
// those attributes — and for an entry not held fails with ErrPatchMiss
// instead of creating a partial one, keeping what the batch applied before.
func TestPatchOp(t *testing.T) {
	st, err := NewStore([]string{""})
	if err != nil {
		t.Fatal(err)
	}
	d := dn.MustParse("cn=a,o=xyz")
	if err := st.Upsert(entry.New(d).Put("cn", "a").Put("tel", "1").Put("fax", "9")); err != nil {
		t.Fatal(err)
	}
	patch := entry.New(d).Put("tel", "2", "3").Put("fax").Put("pager")
	if err := st.ApplyOwned([]SyncOp{{Patch: patch}}); err != nil {
		t.Fatal(err)
	}
	e, _ := st.Get(d)
	if want := entry.New(d).Put("cn", "a").Put("tel", "2", "3"); !e.Equal(want) {
		t.Errorf("patched entry = %s, want %s", e, want)
	}
	changes, _ := st.ChangesSince(1)
	if len(changes) != 1 || changes[0].Type != ChangeModify || len(changes[0].Mods) != 3 {
		t.Fatalf("patch journaled %v", changes)
	}

	absent := dn.MustParse("cn=absent,o=xyz")
	err = st.ApplyOwned([]SyncOp{
		{Patch: entry.New(d).Put("tel", "4")},
		{Patch: entry.New(absent).Put("tel", "5")},
		{Patch: entry.New(d).Put("tel", "6")},
	})
	if !errors.Is(err, ErrPatchMiss) {
		t.Fatalf("patch of an absent entry: err = %v, want ErrPatchMiss", err)
	}
	if _, ok := st.Get(absent); ok {
		t.Error("patch created a partial entry")
	}
	if e, _ := st.Get(d); e.First("tel") != "4" {
		t.Errorf("tel = %q: the batch must stop at the miss with what preceded it applied", e.First("tel"))
	}
}

// TestMoveOp: a patch with From re-keys the entry held there to the patch's
// DN — with no parent held at either name, and leaving what lies below the
// old name where it is — then patches it, journaling a rename and a modify.
// A redelivered move, its old name gone, is the patch alone; a move onto a
// held name drops the old one; a move with neither name held is a patch miss.
func TestMoveOp(t *testing.T) {
	st, err := NewStore([]string{""}, WithIndexes("tel"))
	if err != nil {
		t.Fatal(err)
	}
	a, b := dn.MustParse("cn=a,ou=old,o=xyz"), dn.MustParse("cn=b,ou=new,o=xyz")
	child := dn.MustParse("cn=kid,cn=a,ou=old,o=xyz")
	for _, e := range []*entry.Entry{
		entry.New(a).Put("cn", "a").Put("tel", "1").Put("fax", "9"),
		entry.New(child).Put("cn", "kid"),
	} {
		if err := st.Upsert(e); err != nil {
			t.Fatal(err)
		}
	}
	from := st.LastCSN()
	move := func(from dn.DN, to dn.DN, attrs ...string) SyncOp {
		p := entry.New(to)
		for i := 0; i+1 < len(attrs); i += 2 {
			p.Put(attrs[i], attrs[i+1])
		}
		return SyncOp{From: from, Patch: p}
	}
	if err := st.ApplyOwned([]SyncOp{move(a, b, "cn", "b", "tel", "2")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(a); ok {
		t.Error("old name still held")
	}
	if e, _ := st.Get(b); !e.Equal(entry.New(b).Put("cn", "b").Put("tel", "2").Put("fax", "9")) {
		t.Errorf("moved entry = %v", e)
	}
	if _, ok := st.Get(child); !ok {
		t.Error("the entry below the old name moved or went")
	}
	if got := st.MatchAll(query.MustNew("", query.ScopeSubtree, "(tel=2)")); len(got) != 1 || !got[0].DN().Equal(b) {
		t.Errorf("index finds %v under tel=2", got)
	}
	changes, _ := st.ChangesSince(from)
	if len(changes) != 2 || changes[0].Type != ChangeModifyDN || !changes[0].DN.Equal(a) || !changes[0].NewDN.Equal(b) ||
		changes[1].Type != ChangeModify || len(changes[1].Mods) != 2 {
		t.Fatalf("move journaled %v", changes)
	}

	// Redelivered: the old name is gone, the new one is patched.
	if err := st.ApplyOwned([]SyncOp{move(a, b, "tel", "3")}); err != nil {
		t.Fatal(err)
	}
	if e, _ := st.Get(b); e.First("tel") != "3" {
		t.Errorf("redelivered move left %v", e)
	}
	// Onto a held name: the old one is dropped, the held one patched.
	if err := st.Upsert(entry.New(a).Put("cn", "a")); err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyOwned([]SyncOp{move(a, b, "tel", "4")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(a); ok {
		t.Error("move onto a held name kept the old one")
	}
	if e, _ := st.Get(b); e.First("tel") != "4" || e.First("fax") != "9" {
		t.Errorf("move onto a held name left %v", e)
	}
	// A move without attributes only renames; with neither name held it misses.
	c := dn.MustParse("cn=c,o=xyz")
	before := st.LastCSN()
	if err := st.ApplyOwned([]SyncOp{move(b, c)}); err != nil {
		t.Fatal(err)
	}
	if changes, _ := st.ChangesSince(before); len(changes) != 1 || changes[0].Type != ChangeModifyDN {
		t.Errorf("attribute-less move journaled %v", changes)
	}
	if err := st.ApplyOwned([]SyncOp{move(a, dn.MustParse("cn=d,o=xyz"), "tel", "5")}); !errors.Is(err, ErrPatchMiss) {
		t.Errorf("move of an entry held under neither name: err = %v, want ErrPatchMiss", err)
	}

	// Keep copies the entry as the batch's earlier actions leave it, journals
	// an add, and leaves the old name standing.
	d := dn.MustParse("cn=d,o=xyz")
	keep := move(c, d, "cn", "d")
	keep.Keep = true
	before = st.LastCSN()
	if err := st.ApplyOwned([]SyncOp{{Patch: entry.New(c).Put("tel", "6")}, keep}); err != nil {
		t.Fatal(err)
	}
	if e, _ := st.Get(c); e.First("tel") != "6" {
		t.Errorf("kept entry = %v", e)
	}
	if e, _ := st.Get(d); !e.Equal(entry.New(d).Put("cn", "d").Put("tel", "6").Put("fax", "9")) {
		t.Errorf("copy = %v", e)
	}
	if changes, _ := st.ChangesSince(before); len(changes) != 3 || changes[1].Type != ChangeAdd || changes[2].Type != ChangeModify {
		t.Errorf("patch and copy journaled %v", changes)
	}
}

// TestReplaceTouchesOnlyNamedIndexes drives random modifies, replaces and
// patches over a store with two indexed attributes and referral entries, and
// after every step holds the indexes and the referral registry — which are
// now rewritten only for the attributes a change names — equal to ones
// rebuilt from scratch.
func TestReplaceTouchesOnlyNamedIndexes(t *testing.T) {
	st, err := NewStore([]string{""}, WithIndexes("tel", "dept"), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(16))
	dns := make([]dn.DN, 6)
	for i := range dns {
		dns[i] = dn.MustParse(fmt.Sprintf("cn=p%d,o=xyz", i))
		e := entry.New(dns[i]).Put("objectclass", "person").Put("cn", fmt.Sprint("p", i))
		e.Put("tel", fmt.Sprint(i)).Put("dept", "d0").Put("note", "n")
		if err := st.Upsert(e); err != nil {
			t.Fatal(err)
		}
	}
	// One indexed read builds both indexes; every write after it maintains them.
	st.MatchAll(query.MustNew("", query.ScopeSubtree, "(|(tel=0)(dept=d0))"))
	attrs := []string{"tel", "Dept", "note", "objectClass"}
	value := func(attr string) []string {
		if attr == "objectClass" {
			return [][]string{{"person"}, {"person", ReferralClass}}[r.Intn(2)]
		}
		return [][]string{nil, {fmt.Sprint("v", r.Intn(4))}, {fmt.Sprint("v", r.Intn(4)), "w"}}[r.Intn(3)]
	}
	for step := 0; step < 400; step++ {
		d := dns[r.Intn(len(dns))]
		attr := attrs[r.Intn(len(attrs))]
		vals := value(attr)
		switch r.Intn(3) {
		case 0:
			err = st.Modify(d, []Mod{{Op: ModReplace, Attr: attr, Values: vals}})
		case 1:
			err = st.ApplyOwned([]SyncOp{{Patch: entry.New(d).Put(attr, vals...).Put("note", fmt.Sprint(step))}})
		default:
			cur, _ := st.Get(d)
			if len(vals) > 0 {
				cur.Put(attr, vals...)
			} else if cur.Has(attr) {
				_ = cur.DeleteValues(attr)
			}
			err = st.Upsert(cur)
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, state := range st.freeze().states {
			assertIndexesRebuilt(t, st.indexAttrs, state, fmt.Sprintf("step %d", step))
		}
	}
	// And the indexes still answer searches.
	for _, f := range []string{"(tel=v1)", "(dept=w)", "(tel=v*)"} {
		q := query.MustNew("", query.ScopeSubtree, f)
		var scan int
		for _, e := range st.All() {
			if q.Filter.Matches(e) {
				scan++
			}
		}
		if got := len(st.MatchAll(q)); got != scan {
			t.Errorf("%s: index finds %d, scan %d", f, got, scan)
		}
	}
}
