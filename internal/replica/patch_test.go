package replica

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
	"filterdir/internal/resync"
)

// An in-place modify travels as a patch (resync.Update.Patch). These tests
// hold the patch path to the path it replaced: the same history delivered as
// patches and as complete images must leave byte-identical replica content.

// feed is one replica-side consumer of one session. The imaged kind turns
// every patch it is handed back into what the engine used to send — the
// complete selected image, read off the supplier store, which is quiescent
// while a consumer polls; for a move, the delete of the old DN and the add of
// that image — and is the reference the patched kind is held to.
type feed struct {
	name   string
	eng    *resync.Engine
	source *dit.Store // the supplier's store
	rep    *FilterReplica
	spec   query.Query
	imaged bool
	cookie string
	misses int
	// moveMisses counts the moves that found the entry under neither name.
	// The imaged kind re-Begins on them as the patched kind must: its delete
	// and add would leave standing the name in between, which a consumer
	// ahead of its cookie holds and no later exchange mentions.
	moveMisses int
}

func (f *feed) begin(t *testing.T) {
	t.Helper()
	res, err := f.eng.Begin(f.spec)
	if err != nil {
		t.Fatalf("%s: begin: %v", f.name, err)
	}
	f.rep.RemoveStored(f.spec)
	f.rep.AddStored(f.spec, res.Cookie)
	if err := f.rep.ApplySync(f.spec, res.Updates); err != nil {
		t.Fatalf("%s: apply begin: %v", f.name, err)
	}
	f.cookie = res.Cookie
}

// poll runs one exchange. With forget set the updates are applied but the
// old cookie is kept: the consumer's content is then one exchange ahead of
// the position it will present next, as after a crash between the content
// and the cookie checkpoint.
func (f *feed) poll(t *testing.T, forget bool) {
	t.Helper()
	res, err := f.eng.Poll(f.cookie)
	if err != nil {
		t.Fatalf("%s: poll: %v", f.name, err)
	}
	if res.FullReload {
		t.Fatalf("%s: unexpected full reload", f.name)
	}
	// A move that finds the entry under neither name misses (see moveMisses).
	moveMiss := false
	me := f.rep.ownerIDs[ownerKey(f.spec.Normalize())]
	for _, u := range res.Updates {
		if u.IsMove() && !f.rep.refs[u.OldDN.Norm()].has(me) && !f.rep.refs[u.DN.Norm()].has(me) {
			moveMiss = true
		}
	}
	ups := res.Updates
	if f.imaged {
		ups = nil
		for _, u := range res.Updates {
			if !u.Patch {
				ups = append(ups, u)
				continue
			}
			cur, ok := f.source.Get(u.DN)
			if !ok {
				t.Fatalf("%s: patch for %s, which the supplier does not hold", f.name, u.DN)
			}
			img := resync.Update{Action: resync.ActionModify, DN: u.DN, Entry: cur.Select(f.spec.Attrs)}
			if u.IsMove() {
				img.Action = resync.ActionAdd
				ups = append(ups, resync.Update{Action: resync.ActionDelete, DN: u.OldDN})
			}
			ups = append(ups, img)
		}
	}
	err = dit.ErrPatchMiss
	if !moveMiss || !f.imaged {
		err = f.rep.ApplySync(f.spec, ups)
	}
	switch {
	case errors.Is(err, dit.ErrPatchMiss):
		// What the supervisor does: give the session up and Begin anew.
		f.misses++
		if moveMiss {
			f.moveMisses++
		}
		if err := f.eng.End(f.cookie); err != nil {
			t.Fatalf("%s: end after patch miss: %v", f.name, err)
		}
		f.begin(t)
		return
	case err != nil:
		t.Fatalf("%s: apply: %v", f.name, err)
	}
	if !forget {
		f.cookie = res.Cookie
	}
}

// render is a store's content to the byte: DNs as stored, attributes by
// name, values in stored order.
func render(st *dit.Store) string {
	var b strings.Builder
	for _, e := range st.All() {
		b.WriteString(e.DN().String())
		b.WriteByte('\n')
		names := e.AttributeNames()
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "  %s=%q\n", n, e.Values(n))
		}
	}
	return b.String()
}

// selected renders what the specs select from a store, the way render does.
func selected(t *testing.T, st *dit.Store, specs ...query.Query) string {
	t.Helper()
	sel, err := dit.NewStore([]string{""})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		for _, e := range st.MatchAll(spec) {
			if err := sel.Upsert(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	return render(sel)
}

func newReplica(t *testing.T, opts ...FROption) *FilterReplica {
	t.Helper()
	r, err := NewFilterReplica(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPatchedAndImagedHistoriesConverge is the seeded property: random
// histories — in-place modifies of one or several attributes, flips back
// inside an interval, attribute removal and return, moves in and out of the
// content, deletes, re-adds of a deleted DN, renames — synchronized at random
// points, with random redelivery from an older cookie, through
//
//   - one store fed by two overlapping specs,
//   - an attribute-restricted view of one of them,
//   - a mid-tier hop: a replica of a wider spec whose own engine serves a
//     leaf from the tier store's journal,
//
// each once as the engine sends it and once with every patch expanded to the
// complete image. Every pair must end byte-identical, and those that saw no
// redelivery equal to what their specs select at their supplier.
func TestPatchedAndImagedHistoriesConverge(t *testing.T) {
	specA := query.MustNew("o=xyz", query.ScopeSubtree, "(grp=1)")
	specB := query.MustNew("o=xyz", query.ScopeSubtree, "(|(grp=1)(grp=2))")
	specC := query.MustNew("o=xyz", query.ScopeSubtree, "(grp=1)", "cn", "grp", "tel")
	specWide := query.MustNew("o=xyz", query.ScopeSubtree, "(|(grp=1)(grp=2)(grp=3))")

	var patches, images, suppressed, moves, tierPatches, tierMoves, misses, moveMisses int64
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		master, err := dit.NewStore([]string{"o=xyz"})
		if err != nil {
			t.Fatal(err)
		}
		if err := master.Add(entry.New(dn.MustParse("o=xyz")).Put("objectclass", "organization").Put("o", "xyz")); err != nil {
			t.Fatal(err)
		}
		rev := 0
		person := func(i int) *entry.Entry {
			rev++
			e := entry.New(dn.MustParse(fmt.Sprintf("cn=e%d,o=xyz", i)))
			e.Put("objectclass", "person").Put("cn", fmt.Sprint("e", i)).Put("grp", fmt.Sprint(r.Intn(4)))
			e.Put("tel", fmt.Sprint("t", r.Intn(3))).Put("mail", fmt.Sprint("m", r.Intn(3))).Put("rev", fmt.Sprint(rev))
			return e
		}
		const people = 10
		names := make([]dn.DN, people) // current DN of person i; zero when deleted
		for i := range names {
			e := person(i)
			names[i] = e.DN()
			if err := master.Add(e); err != nil {
				t.Fatal(err)
			}
		}
		eng := resync.NewEngine(master)

		// The tier: a replica of the wide spec and an engine over its store.
		tier := newReplica(t)
		tierFeed := &feed{name: "tier", eng: eng, source: master, rep: tier, spec: specWide}
		tierEng := resync.NewEngine(tier.Store())

		type pair struct {
			specs           []query.Query
			from            *dit.Store // what the pair must end equal to a selection of
			patched, imaged *FilterReplica
			feeds           []*feed // patched and imaged feeds, alternating
			redeliver       bool
		}
		mk := func(eng *resync.Engine, source *dit.Store, redeliver bool, specs ...query.Query) *pair {
			p := &pair{specs: specs, from: source, patched: newReplica(t), imaged: newReplica(t), redeliver: redeliver}
			for i, spec := range specs {
				p.feeds = append(p.feeds,
					&feed{name: fmt.Sprintf("patched[%d]", i), eng: eng, source: source, rep: p.patched, spec: spec},
					&feed{name: fmt.Sprintf("imaged[%d]", i), eng: eng, source: source, rep: p.imaged, spec: spec, imaged: true})
			}
			return p
		}
		// The redelivered pairs are held to each other only. What a consumer
		// ahead of its cookie holds can be beyond any redelivery's reach — an
		// entry that moved in during the exchange it applied and out again
		// before the next nets to nothing, a selected view net-unchanged over
		// the interval is suppressed — for images exactly as for patches: old
		// gaps of at-least-once delivery that this change neither opens nor
		// closes. That patches handle what redelivery does reach is
		// TestPatchCarriesUnionOfTouched.
		pairs := []*pair{
			mk(eng, master, false, specA, specB),
			mk(eng, master, false, specC),
			mk(tierEng, tier.Store(), false, specA),
			mk(eng, master, true, specA, specB),
			mk(tierEng, tier.Store(), true, specA),
		}
		tierFeed.begin(t)
		for _, p := range pairs {
			for _, f := range p.feeds {
				f.begin(t)
			}
		}

		bump := func() dit.Mod {
			rev++
			return dit.Mod{Op: dit.ModReplace, Attr: "rev", Values: []string{fmt.Sprint(rev)}}
		}
		step := func() {
			i := r.Intn(people)
			d := names[i]
			if d.IsRoot() { // deleted: bring it back, perhaps inside the interval that lost it
				e := person(i)
				names[i] = e.DN()
				if err := master.Add(e); err != nil {
					t.Fatal(err)
				}
				return
			}
			var err error
			switch k := r.Intn(20); {
			case k < 5:
				vals := []string{fmt.Sprint("t", r.Intn(3))}
				if r.Intn(3) == 0 {
					vals = append(vals, "t9")
				}
				err = master.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: "tel", Values: vals}, bump()})
			case k < 8:
				err = master.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: "Mail", Values: []string{fmt.Sprint("m", r.Intn(3))}}, bump()})
			case k < 11: // note comes and goes
				cur, _ := master.Get(d)
				if cur.Has("note") {
					err = master.Modify(d, []dit.Mod{{Op: dit.ModDelete, Attr: "note"}, bump()})
				} else {
					err = master.Modify(d, []dit.Mod{{Op: dit.ModAdd, Attr: "note", Values: []string{"n", fmt.Sprint("n", r.Intn(2))}}, bump()})
				}
			case k < 13: // flip and flip back: tel ends where it started, only rev moved
				cur, _ := master.Get(d)
				err = master.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: "tel", Values: []string{"flipped"}}, bump()})
				if err == nil {
					err = master.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: "tel", Values: cur.Values("tel")}, bump()})
				}
			case k < 14: // only what the restricted view does not select
				err = master.Modify(d, []dit.Mod{bump()})
			case k < 17: // in and out of the contents
				err = master.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: "grp", Values: []string{fmt.Sprint(r.Intn(4))}}, bump()})
			case k < 19:
				err = master.Delete(d)
				names[i] = dn.DN{}
			default:
				rev++
				rdn := dn.RDN{Attr: "cn", Value: fmt.Sprintf("e%d-%d", i, rev)}
				parent, _ := d.Parent()
				err = master.ModifyDN(d, rdn, parent)
				names[i] = parent.Child(rdn)
			}
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		for round := 0; round < 60; round++ {
			for n := 1 + r.Intn(4); n > 0; n-- {
				step()
			}
			if r.Intn(4) > 0 {
				tierFeed.poll(t, false)
			}
			for _, p := range pairs {
				for i := 0; i < len(p.feeds); i += 2 {
					if r.Intn(3) == 0 {
						continue // this session sits the round out: its next interval is longer
					}
					forget := p.redeliver && r.Intn(5) == 0
					p.feeds[i].poll(t, forget)
					p.feeds[i+1].poll(t, forget)
				}
			}
		}
		// Quiescence: everyone catches up, the tier first.
		tierFeed.poll(t, false)
		for pi, p := range pairs {
			for _, f := range p.feeds {
				f.poll(t, false)
				misses += int64(f.misses)
				moveMisses += int64(f.moveMisses)
				if f.imaged && f.misses > f.moveMisses {
					t.Errorf("seed %d: an image missed its entry", seed)
				}
			}
			got, ref := render(p.patched.Store()), render(p.imaged.Store())
			if got != ref {
				t.Fatalf("seed %d pair %d: patched content differs from imaged content:\n--- patched\n%s--- imaged\n%s", seed, pi, got, ref)
			}
			if want := selected(t, p.from, p.specs...); !p.redeliver && got != want {
				t.Fatalf("seed %d pair %d: replica differs from its supplier's selection:\n--- replica\n%s--- supplier\n%s", seed, pi, got, want)
			}
		}
		if got, want := render(tier.Store()), selected(t, master, specWide); got != want {
			t.Fatalf("seed %d: tier differs from the master's selection:\n--- tier\n%s--- master\n%s", seed, got, want)
		}
		m, tr := eng.Counters().Snapshot(), tierEng.Counters().Snapshot()
		patches += m.PDUPatches
		images += m.PDUModifies - m.PDUPatches
		suppressed += m.SuppressedModifies
		moves += m.PDUMoves
		tierPatches += tr.PDUPatches
		tierMoves += tr.PDUMoves
	}
	t.Logf("master: %d patches (%d moves), %d image modifies, %d suppressed; tier: %d patches (%d moves); %d patch misses re-begun, %d of them moves",
		patches, moves, images, suppressed, tierPatches, tierMoves, misses, moveMisses)
	if patches == 0 || moves == 0 || images == 0 || suppressed == 0 || tierPatches == 0 || tierMoves == 0 {
		t.Errorf("the histories did not exercise every path: patches=%d moves=%d images=%d suppressed=%d tier patches=%d tier moves=%d",
			patches, moves, images, suppressed, tierPatches, tierMoves)
	}
}

// TestPatchCarriesUnionOfTouched pins the rule that makes at-least-once
// redelivery sound. The consumer applied tel 1→2 but kept the cookie from
// before it; by the time it polls again tel is back at 1 and mail has moved.
// The redelivered interval's net difference is mail alone — a patch of just
// that would leave the consumer's tel=2 standing. The patch must name every
// attribute touched anywhere in the interval.
func TestPatchCarriesUnionOfTouched(t *testing.T) {
	master, err := dit.NewStore([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	d := dn.MustParse("cn=a,o=xyz")
	for _, e := range []*entry.Entry{
		entry.New(dn.MustParse("o=xyz")).Put("objectclass", "organization").Put("o", "xyz"),
		entry.New(d).Put("objectclass", "person").Put("cn", "a").Put("grp", "1").Put("tel", "1").Put("mail", "m1").Put("fax", "f"),
	} {
		if err := master.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	replace := func(attr string, vals ...string) {
		t.Helper()
		if err := master.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: attr, Values: vals}}); err != nil {
			t.Fatal(err)
		}
	}
	spec := query.MustNew("o=xyz", query.ScopeSubtree, "(grp=1)")
	f := &feed{name: "consumer", eng: resync.NewEngine(master), source: master, rep: newReplica(t), spec: spec}
	f.begin(t)

	replace("tel", "2")
	f.poll(t, true) // applied, cookie not adopted
	if got, _ := f.rep.Store().Get(d); got.First("tel") != "2" {
		t.Fatalf("consumer holds %s", got)
	}
	replace("tel", "1")
	replace("mail", "m2")
	replace("fax") // and one attribute goes away

	res, err := f.eng.Poll(f.cookie)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updates) != 1 || !res.Updates[0].Patch {
		t.Fatalf("redelivered interval: %+v, want one patch", res.Updates)
	}
	patch := res.Updates[0].Entry
	for attr, want := range map[string][]string{"tel": {"1"}, "mail": {"m2"}, "fax": {}} {
		got, ok := patch.Lookup(attr)
		if !ok || !slices.Equal(got, want) {
			t.Errorf("patch carries %s=%v (present %v), want %v", attr, got, ok, want)
		}
	}
	if patch.NumAttrs() != 3 {
		t.Errorf("patch = %s, want exactly the touched attributes", patch)
	}
	if err := f.rep.ApplySync(spec, res.Updates); err != nil {
		t.Fatal(err)
	}
	if got, want := render(f.rep.Store()), selected(t, master, spec); got != want {
		t.Errorf("consumer did not converge:\n--- consumer\n%s--- master\n%s", got, want)
	}
}

// TestPatchOnlyForInPlaceModifies: the complete image survives exactly where
// the journal cannot name what was touched — an interval holding a delete and
// re-add of the DN, and retain mode — and a view that selects none of the
// touched attributes gets no PDU at all.
func TestPatchOnlyForInPlaceModifies(t *testing.T) {
	master, err := dit.NewStore([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	d := dn.MustParse("cn=a,o=xyz")
	person := func() *entry.Entry {
		return entry.New(d).Put("objectclass", "person").Put("cn", "a").Put("grp", "1").Put("tel", "1").Put("mail", "m1")
	}
	if err := master.Add(entry.New(dn.MustParse("o=xyz")).Put("objectclass", "organization").Put("o", "xyz")); err != nil {
		t.Fatal(err)
	}
	if err := master.Add(person()); err != nil {
		t.Fatal(err)
	}
	eng := resync.NewEngine(master)
	begin := func(attrs ...string) string {
		t.Helper()
		res, err := eng.Begin(query.MustNew("o=xyz", query.ScopeSubtree, "(grp=1)", attrs...))
		if err != nil {
			t.Fatal(err)
		}
		return res.Cookie
	}
	all, telOnly := begin(), begin("cn", "tel")
	poll := func(cookie string) (*resync.PollResult, string) {
		t.Helper()
		res, err := eng.Poll(cookie)
		if err != nil {
			t.Fatal(err)
		}
		return res, res.Cookie
	}

	// mail alone: a patch for the full view, nothing for the view without it.
	if err := master.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: "mail", Values: []string{"m2"}}}); err != nil {
		t.Fatal(err)
	}
	res, all := poll(all)
	if len(res.Updates) != 1 || !res.Updates[0].Patch || res.Updates[0].Entry.NumAttrs() != 1 {
		t.Errorf("full view: %+v, want one patch of mail", res.Updates)
	}
	res, telOnly = poll(telOnly)
	if len(res.Updates) != 0 {
		t.Errorf("view without the touched attribute: %+v, want no PDU", res.Updates)
	}

	// tel and mail: the restricted view's patch names tel only.
	if err := master.Modify(d, []dit.Mod{
		{Op: dit.ModReplace, Attr: "tel", Values: []string{"2"}},
		{Op: dit.ModReplace, Attr: "mail", Values: []string{"m3"}},
	}); err != nil {
		t.Fatal(err)
	}
	res, telOnly = poll(telOnly)
	if len(res.Updates) != 1 || !res.Updates[0].Patch || res.Updates[0].Entry.NumAttrs() != 1 || res.Updates[0].Entry.First("tel") != "2" {
		t.Errorf("restricted view: %+v, want one patch of tel", res.Updates)
	}
	_, all = poll(all)

	// Delete and re-add inside one interval: a modify with the whole image.
	if err := master.Delete(d); err != nil {
		t.Fatal(err)
	}
	if err := master.Add(person().Put("tel", "3")); err != nil {
		t.Fatal(err)
	}
	res, all = poll(all)
	if len(res.Updates) != 1 || res.Updates[0].Action != resync.ActionModify || res.Updates[0].Patch || !res.Updates[0].Entry.Has("objectclass") {
		t.Errorf("delete + add: %+v, want one image modify", res.Updates)
	}

	// Retain mode sends images.
	if err := master.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: "tel", Values: []string{"4"}}}); err != nil {
		t.Fatal(err)
	}
	ret, err := eng.PollRetain(all)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Updates) != 1 || ret.Updates[0].Action != resync.ActionModify || ret.Updates[0].Patch {
		t.Errorf("retain mode: %+v, want one image modify", ret.Updates)
	}
	s := eng.Counters().Snapshot()
	if s.PDUPatches != 3 || s.PDUModifies != 5 {
		// full view: mail, tel+mail (unchecked above), delete+add, retain; restricted view: tel.
		t.Errorf("counters: %d modifies, %d of them patches; want 5 and 3", s.PDUModifies, s.PDUPatches)
	}
}
