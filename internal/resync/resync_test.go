package resync

import (
	"fmt"
	"math/rand"
	"testing"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
	"filterdir/internal/resync/resynctest"
)

// newMaster builds a master with a handful of person entries under c=us.
func newMaster(t testing.TB) *dit.Store {
	t.Helper()
	st, err := dit.NewStore([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	org := entry.New(dn.MustParse("o=xyz"))
	org.Put("objectclass", "organization").Put("o", "xyz")
	if err := st.Add(org); err != nil {
		t.Fatal(err)
	}
	us := entry.New(dn.MustParse("c=us,o=xyz"))
	us.Put("objectclass", "country").Put("c", "us")
	if err := st.Add(us); err != nil {
		t.Fatal(err)
	}
	return st
}

func addPerson(t testing.TB, st *dit.Store, cn, serial, dept string) dn.DN {
	t.Helper()
	d := dn.MustParse(fmt.Sprintf("cn=%s,c=us,o=xyz", cn))
	e := entry.New(d)
	e.Put("objectclass", "person", "inetOrgPerson").
		Put("cn", cn).Put("sn", cn).
		Put("serialNumber", serial).Put("dept", dept)
	if err := st.Add(e); err != nil {
		t.Fatal(err)
	}
	return d
}

func newReplicaStore(t testing.TB) *dit.Store {
	t.Helper()
	st, err := dit.NewStore([]string{""})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

var specSerial04 = query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)")

func TestBeginSendsContent(t *testing.T) {
	master := newMaster(t)
	addPerson(t, master, "a", "0401", "1")
	addPerson(t, master, "b", "0402", "1")
	addPerson(t, master, "c", "0501", "1") // outside content

	eng := NewEngine(master)
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updates) != 2 {
		t.Fatalf("initial content = %d updates, want 2", len(res.Updates))
	}
	for _, u := range res.Updates {
		if u.Action != ActionAdd || u.Entry == nil {
			t.Errorf("initial update malformed: %+v", u)
		}
	}
	if res.Cookie == "" {
		t.Error("no cookie returned")
	}
}

func TestPollClassification(t *testing.T) {
	master := newMaster(t)
	a := addPerson(t, master, "a", "0401", "1")
	b := addPerson(t, master, "b", "0402", "1")
	addPerson(t, master, "c", "0501", "1")

	eng := NewEngine(master)
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	cookie := res.Cookie

	// E11: modify inside content.
	if err := master.Modify(a, []dit.Mod{{Op: dit.ModReplace, Attr: "dept", Values: []string{"9"}}}); err != nil {
		t.Fatal(err)
	}
	// E10: modify out of content.
	if err := master.Modify(b, []dit.Mod{{Op: dit.ModReplace, Attr: "serialNumber", Values: []string{"0999"}}}); err != nil {
		t.Fatal(err)
	}
	// E01: new entry in content.
	addPerson(t, master, "d", "0403", "2")
	// Out-of-content change: must not appear.
	if err := master.Modify(dn.MustParse("cn=c,c=us,o=xyz"), []dit.Mod{{Op: dit.ModReplace, Attr: "dept", Values: []string{"7"}}}); err != nil {
		t.Fatal(err)
	}

	res, err = eng.Poll(cookie)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]Action{}
	for _, u := range res.Updates {
		got[u.DN.String()] = u.Action
	}
	want := map[string]Action{
		"cn=a,c=us,o=xyz": ActionModify,
		"cn=b,c=us,o=xyz": ActionDelete,
		"cn=d,c=us,o=xyz": ActionAdd,
	}
	if len(got) != len(want) {
		t.Fatalf("updates = %v, want %v", got, want)
	}
	for d, act := range want {
		if got[d] != act {
			t.Errorf("update for %s = %v, want %v", d, got[d], act)
		}
	}
	// Delete PDUs carry no entry.
	for _, u := range res.Updates {
		if u.Action == ActionDelete && u.Entry != nil {
			t.Error("delete update must carry DN only")
		}
	}
}

func TestPollCoalescesToNet(t *testing.T) {
	master := newMaster(t)
	eng := NewEngine(master)
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	cookie := res.Cookie

	// Add then delete within one interval: net nothing.
	d := addPerson(t, master, "x", "0404", "1")
	if err := master.Delete(d); err != nil {
		t.Fatal(err)
	}
	// Add then modify: net one add with final state.
	e := addPerson(t, master, "y", "0405", "1")
	if err := master.Modify(e, []dit.Mod{{Op: dit.ModReplace, Attr: "dept", Values: []string{"42"}}}); err != nil {
		t.Fatal(err)
	}

	res, err = eng.Poll(cookie)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updates) != 1 {
		t.Fatalf("net updates = %d, want 1 (%v)", len(res.Updates), res.Updates)
	}
	u := res.Updates[0]
	if u.Action != ActionAdd || u.Entry.First("dept") != "42" {
		t.Errorf("net add with final state expected, got %v dept=%q", u.Action, u.Entry.First("dept"))
	}
}

// assertMove checks that updates are exactly one move from old to d whose
// patch names the RDN attribute with the new value.
func assertMove(t *testing.T, updates []Update, old, d, cn string) {
	t.Helper()
	if len(updates) != 1 {
		t.Fatalf("rename updates = %d, want one move (%v)", len(updates), updates)
	}
	u := updates[0]
	if !u.IsMove() || u.Action != ActionModify || u.OldDN.String() != old || u.DN.String() != d {
		t.Fatalf("rename = %+v, want a move %s -> %s", u, old, d)
	}
	if u.Entry.NumAttrs() != 1 || u.Entry.First("cn") != cn {
		t.Errorf("move patch = %s, want cn=%s alone", u.Entry, cn)
	}
}

func TestModifyDNWithinContent(t *testing.T) {
	// Figure 3: a rename that keeps the entry in content is, in content, the
	// delete of the old DN plus the add of the new one (E3 -> E5); on the
	// wire the pair is one move.
	master := newMaster(t)
	old := addPerson(t, master, "e3", "0403", "1")
	eng := NewEngine(master)
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	replica := newReplicaStore(t)
	ap := NewApplier(replica)
	if err := ap.Apply(specSerial04, res); err != nil {
		t.Fatal(err)
	}

	if err := master.ModifyDN(old, dn.RDN{Attr: "cn", Value: "e5"}, dn.MustParse("c=us,o=xyz")); err != nil {
		t.Fatal(err)
	}
	res, err = eng.Poll(res.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	assertMove(t, res.Updates, "cn=e3,c=us,o=xyz", "cn=e5,c=us,o=xyz", "e5")
	if err := ap.Apply(specSerial04, res); err != nil {
		t.Fatal(err)
	}
	if ok, why := resynctest.Converged(master, replica, specSerial04); !ok {
		t.Errorf("after the move: %s", why)
	}
	if _, held := replica.Get(old); held {
		t.Error("replica still holds the old DN")
	}
	if s := eng.Counters().Snapshot(); s.PDUMoves != 1 || s.PDUPatches != 1 || s.PDUModifies != 1 || s.PDUAdds != 1 || s.PDUDeletes != 0 {
		t.Errorf("counters: add=%d del=%d mod=%d patch=%d move=%d, want the Begin's add and one move",
			s.PDUAdds, s.PDUDeletes, s.PDUModifies, s.PDUPatches, s.PDUMoves)
	}
	if tr := ap.Traffic; tr.Updates() != 2 || tr.Modifies != 1 {
		t.Errorf("traffic = %+v, want the add and the move, counted once as a modify", tr)
	}
}

func TestFigure3Session(t *testing.T) {
	// Reproduce the message sequence of Figure 3: initial poll returns
	// E1,E2,E3 as adds; the second poll sees E4 added, E1,E2 deleted, E3
	// modified; persist mode then delivers E3 renamed to E5 — the paper's
	// delete + add in content, one move PDU on the wire.
	master := newMaster(t)
	spec := query.MustNew("o=xyz", query.ScopeSubtree, "(objectclass=inetorgperson)")
	e1 := addPerson(t, master, "E1", "0001", "1")
	e2 := addPerson(t, master, "E2", "0002", "1")
	e3 := addPerson(t, master, "E3", "0003", "1")

	eng := NewEngine(master)
	res, err := eng.Begin(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updates) != 3 {
		t.Fatalf("initial = %d, want 3", len(res.Updates))
	}
	cookie := res.Cookie
	replica := newReplicaStore(t)
	ap := NewApplier(replica)
	if err := ap.Apply(spec, res); err != nil {
		t.Fatal(err)
	}

	addPerson(t, master, "E4", "0004", "1")
	if err := master.Delete(e1); err != nil {
		t.Fatal(err)
	}
	if err := master.Delete(e2); err != nil {
		t.Fatal(err)
	}
	if err := master.Modify(e3, []dit.Mod{{Op: dit.ModReplace, Attr: "dept", Values: []string{"2"}}}); err != nil {
		t.Fatal(err)
	}

	res, err = eng.Poll(cookie)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Action]int{}
	for _, u := range res.Updates {
		counts[u.Action]++
	}
	if counts[ActionAdd] != 1 || counts[ActionDelete] != 2 || counts[ActionModify] != 1 {
		t.Fatalf("poll 2 = %v", counts)
	}
	if err := ap.Apply(spec, res); err != nil {
		t.Fatal(err)
	}

	// Persist mode: rename E3 -> E5.
	sub, err := eng.Persist(res.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	if err := master.ModifyDN(e3, dn.RDN{Attr: "cn", Value: "E5"}, dn.MustParse("c=us,o=xyz")); err != nil {
		t.Fatal(err)
	}
	batch := <-sub.Updates
	sub.Close()
	if batch.Cookie == "" {
		t.Error("pushed batch carried no sync-point cookie")
	}
	assertMove(t, batch.Updates, "cn=E3,c=us,o=xyz", "cn=E5,c=us,o=xyz", "E5")
	// The paper's end state: E4 and E5, the latter with E3's content.
	if err := ap.Apply(spec, &PollResult{Updates: batch.Updates}); err != nil {
		t.Fatal(err)
	}
	if ok, why := resynctest.Converged(master, replica, spec); !ok {
		t.Errorf("replica after the rename: %s", why)
	}
	if e5, ok := replica.Get(dn.MustParse("cn=E5,c=us,o=xyz")); !ok || e5.First("dept") != "2" || replica.Len() != 2 {
		t.Errorf("replica holds %d entries, E5 = %v", replica.Len(), e5)
	}
	if err := eng.End(res.Cookie); err != nil {
		t.Fatal(err)
	}
	if eng.Sessions() != 0 {
		t.Error("session not removed by End")
	}
}

func TestFullReloadAfterTrim(t *testing.T) {
	masterBase, err := dit.NewStore([]string{"o=xyz"}, dit.WithJournalLimit(2))
	if err != nil {
		t.Fatal(err)
	}
	org := entry.New(dn.MustParse("o=xyz"))
	org.Put("objectclass", "organization").Put("o", "xyz")
	if err := masterBase.Add(org); err != nil {
		t.Fatal(err)
	}
	us := entry.New(dn.MustParse("c=us,o=xyz"))
	us.Put("objectclass", "country").Put("c", "us")
	if err := masterBase.Add(us); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(masterBase)
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	cookie := res.Cookie
	// Generate more changes than the journal holds.
	for i := 0; i < 5; i++ {
		addPerson(t, masterBase, fmt.Sprintf("p%d", i), fmt.Sprintf("040%d", i), "1")
	}
	res, err = eng.Poll(cookie)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullReload {
		t.Fatal("expected FullReload after journal trim")
	}
	if len(res.Updates) != 5 {
		t.Errorf("reload carried %d entries, want 5", len(res.Updates))
	}
}

func TestApplierConvergence(t *testing.T) {
	master := newMaster(t)
	a := addPerson(t, master, "a", "0401", "1")
	addPerson(t, master, "b", "0402", "1")

	eng := NewEngine(master)
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	replica := newReplicaStore(t)
	ap := NewApplier(replica)
	if err := ap.Apply(specSerial04, res); err != nil {
		t.Fatal(err)
	}
	if ok, why := resynctest.Converged(master, replica, specSerial04); !ok {
		t.Fatalf("not converged after initial sync: %s", why)
	}

	if err := master.Modify(a, []dit.Mod{{Op: dit.ModReplace, Attr: "dept", Values: []string{"8"}}}); err != nil {
		t.Fatal(err)
	}
	addPerson(t, master, "c", "0403", "1")
	res, err = eng.Poll(res.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	if err := ap.Apply(specSerial04, res); err != nil {
		t.Fatal(err)
	}
	if ok, why := resynctest.Converged(master, replica, specSerial04); !ok {
		t.Fatalf("not converged after poll: %s", why)
	}
	if ap.Traffic.Updates() == 0 || ap.Traffic.Bytes == 0 {
		t.Error("traffic not accounted")
	}
}

// randomUpdates drives a random mutation stream against the master.
var randomUpdateSeq int

func randomUpdates(t testing.TB, r *rand.Rand, master *dit.Store, people []dn.DN, steps int) []dn.DN {
	t.Helper()
	serial := func() string { return fmt.Sprintf("0%d%02d", 4+r.Intn(2), r.Intn(100)) }
	randomUpdateSeq++
	next := randomUpdateSeq * 100000
	for i := 0; i < steps; i++ {
		switch op := r.Intn(10); {
		case op < 3 || len(people) == 0: // add
			d := dn.MustParse(fmt.Sprintf("cn=r%d,c=us,o=xyz", next))
			next++
			e := entry.New(d)
			e.Put("objectclass", "person", "inetOrgPerson").Put("cn", fmt.Sprintf("r%d", next)).
				Put("sn", "r").Put("serialNumber", serial()).Put("dept", fmt.Sprintf("%d", r.Intn(5)))
			if err := master.Add(e); err != nil {
				t.Fatal(err)
			}
			people = append(people, d)
		case op < 6: // modify (possibly moving in/out of content)
			d := people[r.Intn(len(people))]
			if _, ok := master.Get(d); !ok {
				continue
			}
			if err := master.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: "serialNumber", Values: []string{serial()}}}); err != nil {
				t.Fatal(err)
			}
		case op < 8: // delete
			idx := r.Intn(len(people))
			d := people[idx]
			if _, ok := master.Get(d); !ok {
				continue
			}
			if err := master.Delete(d); err != nil {
				t.Fatal(err)
			}
			people = append(people[:idx], people[idx+1:]...)
		default: // rename
			idx := r.Intn(len(people))
			d := people[idx]
			if _, ok := master.Get(d); !ok {
				continue
			}
			newRDN := dn.RDN{Attr: "cn", Value: fmt.Sprintf("m%d", next)}
			next++
			if err := master.ModifyDN(d, newRDN, dn.MustParse("c=us,o=xyz")); err != nil {
				t.Fatal(err)
			}
			people[idx] = dn.MustParse(newRDN.String() + ",c=us,o=xyz")
		}
	}
	return people
}

func TestConvergenceUnderRandomStream(t *testing.T) {
	// Property: after any interleaving of updates and polls, the replica
	// content equals the master content — ReSync's convergence guarantee.
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		master := newMaster(t)
		var people []dn.DN
		for i := 0; i < 20; i++ {
			people = append(people, addPerson(t, master, fmt.Sprintf("s%d", i), fmt.Sprintf("04%02d", i), "1"))
		}
		eng := NewEngine(master)
		res, err := eng.Begin(specSerial04)
		if err != nil {
			t.Fatal(err)
		}
		replica := newReplicaStore(t)
		ap := NewApplier(replica)
		if err := ap.Apply(specSerial04, res); err != nil {
			t.Fatal(err)
		}
		cookie := res.Cookie
		for round := 0; round < 8; round++ {
			people = randomUpdates(t, r, master, people, 15)
			res, err := eng.Poll(cookie)
			if err != nil {
				t.Fatal(err)
			}
			cookie = res.Cookie
			if err := ap.Apply(specSerial04, res); err != nil {
				t.Fatal(err)
			}
			if ok, why := resynctest.Converged(master, replica, specSerial04); !ok {
				t.Fatalf("seed %d round %d: %s", seed, round, why)
			}
		}
	}
}

func TestRetainModeConverges(t *testing.T) {
	master := newMaster(t)
	var people []dn.DN
	for i := 0; i < 10; i++ {
		people = append(people, addPerson(t, master, fmt.Sprintf("s%d", i), fmt.Sprintf("04%02d", i), "1"))
	}
	eng := NewEngine(master)
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	replica := newReplicaStore(t)
	ap := NewApplier(replica)
	if err := ap.Apply(specSerial04, res); err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(3))
	randomUpdates(t, r, master, people, 25)
	ret, err := eng.PollRetain(res.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	if err := ap.ApplyRetain(specSerial04, ret); err != nil {
		t.Fatal(err)
	}
	if ok, why := resynctest.Converged(master, replica, specSerial04); !ok {
		t.Fatalf("retain mode did not converge: %s", why)
	}
	// Retain actions must appear for unchanged entries.
	hasRetain := false
	for _, u := range ret.Updates {
		if u.Action == ActionRetain {
			hasRetain = true
			if u.Entry != nil {
				t.Error("retain update must carry DN only")
			}
		}
	}
	if !hasRetain {
		t.Error("expected retain actions for unchanged entries")
	}
}

func TestPersistSubscriptionCloseIdempotent(t *testing.T) {
	master := newMaster(t)
	eng := NewEngine(master)
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Persist(res.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
	sub.Close() // must not panic or hang
	if _, err := eng.Persist("nope"); err == nil {
		t.Error("Persist with bad cookie must fail")
	}
}

func TestPollUnknownCookie(t *testing.T) {
	eng := NewEngine(newMaster(t))
	if _, err := eng.Poll("bogus"); err == nil {
		t.Error("expected error for unknown cookie")
	}
	if err := eng.End("bogus"); err == nil {
		t.Error("expected error ending unknown cookie")
	}
}

func TestTrafficAccounting(t *testing.T) {
	e := entry.New(dn.MustParse("cn=a,o=xyz"))
	e.Put("objectclass", "person").Put("cn", "a").Put("sn", "a")
	var tr Traffic
	tr.Add(Update{Action: ActionAdd, DN: e.DN(), Entry: e})
	tr.Add(Update{Action: ActionModify, DN: e.DN(), Entry: e})
	tr.Add(Update{Action: ActionDelete, DN: e.DN()})
	tr.Add(Update{Action: ActionRetain, DN: e.DN()})
	if tr.Adds != 1 || tr.Modifies != 1 || tr.Deletes != 1 || tr.Retains != 1 {
		t.Errorf("traffic counts: %+v", tr)
	}
	if tr.Updates() != 4 {
		t.Errorf("Updates() = %d", tr.Updates())
	}
	// A delete PDU is far smaller than an entry-bearing one.
	del := Update{Action: ActionDelete, DN: e.DN()}
	add := Update{Action: ActionAdd, DN: e.DN(), Entry: e}
	if del.ByteSize() >= add.ByteSize() {
		t.Errorf("delete PDU size %d not below add size %d", del.ByteSize(), add.ByteSize())
	}
	var total Traffic
	total.Merge(tr)
	total.Merge(tr)
	if total.Updates() != 8 || total.Bytes != 2*tr.Bytes {
		t.Errorf("Merge: %+v", total)
	}
}

func TestActionStrings(t *testing.T) {
	want := map[Action]string{
		ActionAdd: "add", ActionDelete: "delete",
		ActionModify: "modify", ActionRetain: "retain",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("Action(%d).String() = %q, want %q", a, a.String(), s)
		}
	}
	if Action(99).String() == "" {
		t.Error("unknown action must still render")
	}
}
