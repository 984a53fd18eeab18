package replica

import (
	"errors"
	"testing"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
	"filterdir/internal/resync"
)

// moveFixture is a master with three persons under o=xyz — a (grp=1, sn=x),
// b (grp=2, sn=x), c (grp=1, sn=y) — and specs by grp and by sn, which both
// cover a.
func moveFixture(t *testing.T) (*dit.Store, query.Query, query.Query) {
	t.Helper()
	master, err := dit.NewStore([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*entry.Entry{
		entry.New(dn.MustParse("o=xyz")).Put("objectclass", "organization").Put("o", "xyz"),
		entry.New(dn.MustParse("cn=a,o=xyz")).Put("objectclass", "person").Put("cn", "a").Put("grp", "1").Put("sn", "x").Put("tel", "1"),
		entry.New(dn.MustParse("cn=b,o=xyz")).Put("objectclass", "person").Put("cn", "b").Put("grp", "2").Put("sn", "x").Put("tel", "1"),
		entry.New(dn.MustParse("cn=c,o=xyz")).Put("objectclass", "person").Put("cn", "c").Put("grp", "1").Put("sn", "y").Put("tel", "1"),
	} {
		if err := master.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return master, query.MustNew("o=xyz", query.ScopeSubtree, "(grp=1)"), query.MustNew("o=xyz", query.ScopeSubtree, "(sn=x)")
}

func renameTo(t *testing.T, st *dit.Store, from, cn string) {
	t.Helper()
	if err := st.ModifyDN(dn.MustParse(from), dn.RDN{Attr: "cn", Value: cn}, dn.MustParse("o=xyz")); err != nil {
		t.Fatal(err)
	}
}

// TestMoveWithOverlappingOwners: an entry two stored queries cover is renamed
// at the master. Whichever query's move lands first, the replica may neither
// take the entry from the other owner nor keep it twice once both have
// moved: the first move copies the entry to its new DN and leaves the old
// one to the other owner, the second lets go of the old DN — the last owner,
// so the entry there goes — and patches the new one. Dropping either query
// then leaves the other's content whole. An entry one query covers alone is
// re-keyed in place, with no parent held.
func TestMoveWithOverlappingOwners(t *testing.T) {
	for _, order := range []string{"grp first", "sn first"} {
		t.Run(order, func(t *testing.T) {
			master, byGrp, bySn := moveFixture(t)
			eng := resync.NewEngine(master)
			rep := newReplica(t)
			feeds := []*feed{
				{name: "grp", eng: eng, source: master, rep: rep, spec: byGrp},
				{name: "sn", eng: eng, source: master, rep: rep, spec: bySn},
			}
			if order == "sn first" {
				feeds[0], feeds[1] = feeds[1], feeds[0]
			}
			for _, f := range feeds {
				f.begin(t)
			}
			renameTo(t, master, "cn=a,o=xyz", "a2")
			renameTo(t, master, "cn=c,o=xyz", "c2") // grp's alone
			if err := master.Modify(dn.MustParse("cn=a2,o=xyz"), []dit.Mod{{Op: dit.ModReplace, Attr: "tel", Values: []string{"2"}}}); err != nil {
				t.Fatal(err)
			}

			feeds[0].poll(t, false)
			a2, _ := rep.Store().Get(dn.MustParse("cn=a2,o=xyz"))
			a, _ := rep.Store().Get(dn.MustParse("cn=a,o=xyz"))
			if a2 == nil || a2.First("tel") != "2" || a == nil || a.First("tel") != "1" {
				t.Fatalf("after %s's moves: a2 = %v, a = %v; want a2 moved and patched, a still the other owner's as it was",
					feeds[0].name, a2, a)
			}
			feeds[1].poll(t, false)
			if got, want := render(rep.Store()), selected(t, master, byGrp, bySn); got != want {
				t.Fatalf("after both moves:\n%s\nwant\n%s", got, want)
			}
			for _, f := range feeds {
				if f.misses != 0 {
					t.Errorf("%s: %d patch misses", f.name, f.misses)
				}
			}
			renames := 0
			changes, _ := rep.Store().ChangesSince(0)
			for _, c := range changes {
				if c.Type == dit.ChangeModifyDN {
					if renames++; c.DN.String() != "cn=c,o=xyz" || c.NewDN.String() != "cn=c2,o=xyz" {
						t.Errorf("replica journaled a rename %s -> %s", c.DN, c.NewDN)
					}
				}
			}
			if renames != 1 {
				t.Errorf("replica journaled %d renames, want c's alone: a was copied, then dropped", renames)
			}
			if s := eng.Counters().Snapshot(); s.PDUMoves != 3 || s.PDUAdds != 4 || s.PDUDeletes != 0 {
				t.Errorf("engine sent add=%d del=%d move=%d, want the Begins' 4 adds and 3 moves", s.PDUAdds, s.PDUDeletes, s.PDUMoves)
			}
			rep.RemoveStored(feeds[0].spec)
			if got, want := render(rep.Store()), selected(t, master, feeds[1].spec); got != want {
				t.Errorf("without %s:\n%s\nwant\n%s", feeds[0].name, got, want)
			}
			rep.RemoveStored(feeds[1].spec)
			if n := rep.EntryCount(); n != 0 {
				t.Errorf("%d entries left with no owner", n)
			}
		})
	}
}

// TestMoveCopiesWhatTheBatchLeaves: a persist consumer drains two wire
// batches into one ApplySync — a patch of a, then a's move to a2 — while
// another query still covers a. The copy at a2 is the patched a, not the a
// held before the batch: the move itself names only the RDN's type, and the
// other query's move, which finds a2 held and just patches it, cannot repair
// a stale copy.
func TestMoveCopiesWhatTheBatchLeaves(t *testing.T) {
	master, byGrp, bySn := moveFixture(t)
	eng := resync.NewEngine(master)
	rep := newReplica(t)
	grp := &feed{name: "grp", eng: eng, source: master, rep: rep, spec: byGrp}
	sn := &feed{name: "sn", eng: eng, source: master, rep: rep, spec: bySn}
	grp.begin(t)
	sn.begin(t)

	if err := master.Modify(dn.MustParse("cn=a,o=xyz"), []dit.Mod{{Op: dit.ModReplace, Attr: "tel", Values: []string{"2"}}}); err != nil {
		t.Fatal(err)
	}
	first, err := eng.Poll(grp.cookie)
	if err != nil {
		t.Fatal(err)
	}
	renameTo(t, master, "cn=a,o=xyz", "a2")
	second, err := eng.Poll(first.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	batch := append(first.Updates, second.Updates...)
	if len(batch) != 2 || !batch[0].Patch || batch[0].IsMove() || !batch[1].IsMove() {
		t.Fatalf("drained batches: %+v, want a patch then a move", batch)
	}
	if err := rep.ApplySync(byGrp, batch); err != nil {
		t.Fatal(err)
	}
	grp.cookie = second.Cookie
	if a2, _ := rep.Store().Get(dn.MustParse("cn=a2,o=xyz")); a2 == nil || a2.First("tel") != "2" {
		t.Fatalf("copy at a2 = %v, want tel 2", a2)
	}
	sn.poll(t, false)
	if got, want := render(rep.Store()), selected(t, master, byGrp, bySn); got != want {
		t.Errorf("after both moves:\n%s\nwant\n%s", got, want)
	}
}

// TestMoveRedeliveredToConsumerAhead: a consumer that applied a move but
// kept the cookie from before it is sent the move again; it holds the entry
// under the new DN only, and the move applies as the patch it carries. A
// consumer that holds the entry under neither name — it applied a rename the
// redelivered interval has since continued past — cannot place the move and
// misses, where the delete and add of old would have left the name between
// standing for good.
func TestMoveRedeliveredToConsumerAhead(t *testing.T) {
	master, byGrp, _ := moveFixture(t)
	f := &feed{name: "consumer", eng: resync.NewEngine(master), source: master, rep: newReplica(t), spec: byGrp}
	f.begin(t)

	renameTo(t, master, "cn=a,o=xyz", "a2")
	f.poll(t, true) // applied, cookie not adopted
	if err := master.Modify(dn.MustParse("cn=a2,o=xyz"), []dit.Mod{{Op: dit.ModReplace, Attr: "tel", Values: []string{"2"}}}); err != nil {
		t.Fatal(err)
	}
	res, err := f.eng.Poll(f.cookie)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updates) != 1 || !res.Updates[0].IsMove() {
		t.Fatalf("redelivered interval: %+v, want the one move", res.Updates)
	}
	if err := f.rep.ApplySync(f.spec, res.Updates); err != nil {
		t.Fatalf("redelivered move: %v", err)
	}
	f.cookie = res.Cookie
	if got, want := render(f.rep.Store()), selected(t, master, f.spec); got != want {
		t.Errorf("after the redelivered move:\n%s\nwant\n%s", got, want)
	}

	renameTo(t, master, "cn=a2,o=xyz", "a3")
	f.poll(t, true)
	renameTo(t, master, "cn=a3,o=xyz", "a4")
	res, err = f.eng.Poll(f.cookie)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.rep.ApplySync(f.spec, res.Updates); !errors.Is(err, dit.ErrPatchMiss) {
		t.Errorf("move a2 -> a4 onto a consumer holding a3: err = %v, want ErrPatchMiss", err)
	}
}
