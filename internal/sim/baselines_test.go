package sim

import (
	"fmt"
	"testing"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
	"filterdir/internal/resync"
)

// The synchronization baselines the paper compares ReSync against (Section
// 5.2), beside the retain mode the engine serves (resync.Engine.PollRetain):
//
//   - tombstone sync: deleted entries leave only a DN-bearing tombstone, so
//     the server cannot tell whether a deleted entry was in the content —
//     every deleted DN since the last poll is transmitted.
//   - changelog sync: modify records carry only the changed attributes, so
//     the server cannot evaluate content membership of modifies; it ships
//     raw records and the consumer applies what it can. An entry modified
//     INTO the content is lost (the record lacks the full entry), so the
//     mechanism does not converge.
//   - full reload: the entire content is resent on every poll.

// inContent reports whether e lies in q's content: in its scope and, when q
// has a filter, matching it.
func inContent(q query.Query, e *entry.Entry) bool {
	return e != nil && q.InScope(e.DN()) && (q.Filter == nil || q.Filter.Matches(e))
}

// tombstoneServer models a master that keeps tombstones instead of
// per-session leave history. Adds and in-content modifies are classified
// exactly (before-images are available for those), but deletions are known
// only by DN — so every deletion since the poll point is transmitted,
// whether or not it affected the content.
type tombstoneServer struct {
	store *dit.Store
}

// tombstoneSession is consumer state for tombstone-based sync.
type tombstoneSession struct {
	spec    query.Query
	lastCSN dit.CSN
	content map[string]bool
}

// begin starts a tombstone session with a full content transfer.
func (ts tombstoneServer) begin(spec query.Query) (*resync.PollResult, *tombstoneSession) {
	sess := &tombstoneSession{spec: spec, lastCSN: ts.store.LastCSN(), content: make(map[string]bool)}
	res := &resync.PollResult{}
	for _, ent := range ts.store.MatchAll(query.Query{Base: spec.Base, Scope: spec.Scope, Filter: spec.Filter}) {
		sess.content[ent.DN().Norm()] = true
		res.Updates = append(res.Updates, resync.Update{Action: resync.ActionAdd, DN: ent.DN(), Entry: ent})
	}
	return res, sess
}

// poll returns updates since the last poll: exact adds/modifies/moved-out
// deletes, plus a delete PDU for EVERY tombstoned (deleted) entry since the
// sync point regardless of content membership — the overhead the paper
// attributes to tombstones.
func (ts tombstoneServer) poll(sess *tombstoneSession) (*resync.PollResult, bool) {
	changes, ok := ts.store.ChangesSince(sess.lastCSN)
	if !ok {
		return nil, false
	}
	res := &resync.PollResult{}
	add := func(action resync.Action, d dn.DN, e *entry.Entry) {
		res.Updates = append(res.Updates, resync.Update{Action: action, DN: d, Entry: e})
	}
	for _, c := range changes {
		switch c.Type {
		case dit.ChangeAdd:
			if inContent(sess.spec, c.After) {
				add(resync.ActionAdd, c.DN, c.After)
				sess.content[c.DN.Norm()] = true
			}
		case dit.ChangeModify:
			norm := c.DN.Norm()
			was := sess.content[norm]
			is := inContent(sess.spec, c.After)
			switch {
			case was && is:
				add(resync.ActionModify, c.DN, c.After)
			case was && !is:
				add(resync.ActionDelete, c.DN, nil)
				delete(sess.content, norm)
			case !was && is:
				add(resync.ActionAdd, c.DN, c.After)
				sess.content[norm] = true
			}
		case dit.ChangeModifyDN:
			oldNorm := c.DN.Norm()
			if sess.content[oldNorm] {
				add(resync.ActionDelete, c.DN, nil)
				delete(sess.content, oldNorm)
			}
			if inContent(sess.spec, c.After) {
				add(resync.ActionAdd, c.NewDN, c.After)
				sess.content[c.NewDN.Norm()] = true
			}
		case dit.ChangeDelete:
			// The tombstone carries no attributes: the server cannot decide
			// content membership and must ship the DN unconditionally.
			add(resync.ActionDelete, c.DN, nil)
			delete(sess.content, c.DN.Norm())
		}
	}
	if len(changes) > 0 {
		sess.lastCSN = changes[len(changes)-1].CSN
	}
	return res, true
}

// changelogRecord is a raw changelog entry as shipped to consumers: the
// operation, the DN, and for modifies only the changed attributes.
type changelogRecord struct {
	typ   dit.ChangeType
	dn    dn.DN
	newDN dn.DN
	// entry is the full entry for adds (the changelog stores the add
	// payload); nil otherwise.
	entry *entry.Entry
	mods  []dit.Mod
}

// changelogSince returns the raw changelog records of store with CSN greater
// than after whose target lies in the base/scope region of spec: the server
// cannot evaluate the filter for modify records (a changelog holds no
// before/after images). Records for adds carry the full entry and are
// filtered, since the server can evaluate an add; all modify, delete and
// modifyDN records in scope are shipped.
func changelogSince(store *dit.Store, spec query.Query, after dit.CSN) ([]changelogRecord, dit.CSN, bool) {
	changes, ok := store.ChangesSince(after)
	if !ok {
		return nil, after, false
	}
	var out []changelogRecord
	last := after
	region := query.Query{Base: spec.Base, Scope: spec.Scope}
	for _, c := range changes {
		last = c.CSN
		switch c.Type {
		case dit.ChangeAdd:
			if inContent(spec, c.After) {
				out = append(out, changelogRecord{typ: c.Type, dn: c.DN, entry: c.After})
			}
		case dit.ChangeModify:
			if region.InScope(c.DN) {
				out = append(out, changelogRecord{typ: c.Type, dn: c.DN, mods: c.Mods})
			}
		case dit.ChangeDelete:
			if region.InScope(c.DN) {
				out = append(out, changelogRecord{typ: c.Type, dn: c.DN})
			}
		case dit.ChangeModifyDN:
			if region.InScope(c.DN) || region.InScope(c.NewDN) {
				out = append(out, changelogRecord{typ: c.Type, dn: c.DN, newDN: c.NewDN})
			}
		}
	}
	return out, last, true
}

// changelogConsumer applies raw changelog records to a replica content set.
// Modify records can only be applied to held entries; an entry modified
// into the content is silently missed — the convergence failure the paper
// describes.
type changelogConsumer struct {
	spec    query.Query
	entries map[string]*entry.Entry // norm DN -> held entry
}

// newChangelogConsumer creates a consumer holding the initial content.
func newChangelogConsumer(spec query.Query, initial []*entry.Entry) *changelogConsumer {
	c := &changelogConsumer{spec: spec, entries: make(map[string]*entry.Entry, len(initial))}
	for _, e := range initial {
		c.entries[e.DN().Norm()] = e.Clone()
	}
	return c
}

// apply consumes records, mutating the held content.
func (c *changelogConsumer) apply(records []changelogRecord) {
	for _, r := range records {
		switch r.typ {
		case dit.ChangeAdd:
			if inContent(c.spec, r.entry) {
				c.entries[r.dn.Norm()] = r.entry.Clone()
			}
		case dit.ChangeDelete:
			delete(c.entries, r.dn.Norm())
		case dit.ChangeModify:
			held, ok := c.entries[r.dn.Norm()]
			if !ok {
				// The record lacks the full entry; a real consumer cannot
				// construct it. Convergence is lost if the modify moved the
				// entry into the content.
				continue
			}
			// Apply what applies: one mod at a time, since the held copy
			// may lack an attribute a delete names.
			for _, m := range r.mods {
				_ = dit.ApplyMods(held, []dit.Mod{m})
			}
			if !inContent(c.spec, held) {
				delete(c.entries, r.dn.Norm())
			}
		case dit.ChangeModifyDN:
			if held, ok := c.entries[r.dn.Norm()]; ok {
				delete(c.entries, r.dn.Norm())
				held.SetDN(r.newDN)
				if c.spec.InScope(r.newDN) {
					c.entries[r.newDN.Norm()] = held
				}
			}
		}
	}
}

// fullReload returns the entire current content as add actions — the
// maximal-traffic baseline.
func fullReload(store *dit.Store, spec query.Query) []resync.Update {
	entries := store.MatchAll(query.Query{Base: spec.Base, Scope: spec.Scope, Filter: spec.Filter})
	out := make([]resync.Update, 0, len(entries))
	for _, ent := range entries {
		sel := ent.Select(spec.Attrs)
		out = append(out, resync.Update{Action: resync.ActionAdd, DN: sel.DN(), Entry: sel})
	}
	return out
}

// baselineMaster builds a master holding o=xyz and c=us,o=xyz.
func baselineMaster(t *testing.T) *dit.Store {
	t.Helper()
	st, err := dit.NewStore([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	org := entry.New(dn.MustParse("o=xyz"))
	org.Put("objectclass", "organization").Put("o", "xyz")
	us := entry.New(dn.MustParse("c=us,o=xyz"))
	us.Put("objectclass", "country").Put("c", "us")
	for _, e := range []*entry.Entry{org, us} {
		if err := st.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// addPerson adds cn=<cn>,c=us,o=xyz with the given serial number.
func addPerson(t *testing.T, st *dit.Store, cn, serial string) dn.DN {
	t.Helper()
	d := dn.MustParse(fmt.Sprintf("cn=%s,c=us,o=xyz", cn))
	e := entry.New(d)
	e.Put("objectclass", "person", "inetOrgPerson").
		Put("cn", cn).Put("sn", cn).
		Put("serialNumber", serial).Put("dept", "1")
	if err := st.Add(e); err != nil {
		t.Fatal(err)
	}
	return d
}

var specSerial04 = query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)")

func TestTombstoneSendsAllDeletes(t *testing.T) {
	master := baselineMaster(t)
	in := addPerson(t, master, "in", "0401")
	out := addPerson(t, master, "out", "0901")

	ts := tombstoneServer{store: master}
	res, sess := ts.begin(specSerial04)
	if len(res.Updates) != 1 {
		t.Fatalf("initial tombstone content = %d", len(res.Updates))
	}
	// Delete both: a ReSync session would ship one delete; tombstones ship
	// both DNs.
	if err := master.Delete(in); err != nil {
		t.Fatal(err)
	}
	if err := master.Delete(out); err != nil {
		t.Fatal(err)
	}
	res, ok := ts.poll(sess)
	if !ok {
		t.Fatal("tombstone poll failed")
	}
	deletes := 0
	for _, u := range res.Updates {
		if u.Action == resync.ActionDelete {
			deletes++
		}
	}
	if deletes != 2 {
		t.Errorf("tombstone deletes = %d, want 2 (all deleted DNs)", deletes)
	}
}

func TestChangelogDoesNotConverge(t *testing.T) {
	// The paper's failure case inverted: an entry is modified INTO the
	// content; the changelog record carries only the changed attributes, so
	// a consumer that does not hold the entry cannot construct it.
	master := baselineMaster(t)
	d := addPerson(t, master, "mover", "0901") // outside content

	spec := specSerial04
	consumer := newChangelogConsumer(spec, master.MatchAll(spec))
	last := master.LastCSN()

	if err := master.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: "serialNumber", Values: []string{"0404"}}}); err != nil {
		t.Fatal(err)
	}
	records, _, ok := changelogSince(master, spec, last)
	if !ok {
		t.Fatal("changelog trimmed")
	}
	consumer.apply(records)

	// Master content now holds the mover; consumer does not.
	if n := len(master.MatchAll(spec)); n != 1 {
		t.Fatalf("master content = %d, want 1", n)
	}
	if len(consumer.entries) != 0 {
		t.Fatalf("consumer should have missed the move-in, holds %d", len(consumer.entries))
	}
}

func TestChangelogModifyOutAndDelete(t *testing.T) {
	// The paper's exact sequence: modify out of content, then delete. The
	// consumer holding the entry applies the mods, detects the move-out,
	// and the subsequent delete is harmless — but the server had to ship
	// both records because it could not classify them.
	master := baselineMaster(t)
	d := addPerson(t, master, "victim", "0401")

	spec := specSerial04
	consumer := newChangelogConsumer(spec, master.MatchAll(spec))
	last := master.LastCSN()

	if err := master.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: "serialNumber", Values: []string{"0901"}}}); err != nil {
		t.Fatal(err)
	}
	if err := master.Delete(d); err != nil {
		t.Fatal(err)
	}
	records, _, ok := changelogSince(master, spec, last)
	if !ok {
		t.Fatal("changelog trimmed")
	}
	if len(records) != 2 {
		t.Fatalf("changelog shipped %d records, want 2 (cannot classify)", len(records))
	}
	consumer.apply(records)
	if len(consumer.entries) != 0 {
		t.Error("consumer failed to drop the moved-out entry")
	}
}

func TestResyncTrafficBeatsBaselines(t *testing.T) {
	// Quantitative comparison on one workload: ReSync ships the minimal
	// set; retain mode adds retain PDUs; full reload ships everything.
	master := baselineMaster(t)
	var people []dn.DN
	for i := 0; i < 40; i++ {
		people = append(people, addPerson(t, master, fmt.Sprintf("p%d", i), fmt.Sprintf("04%02d", i)))
	}
	eng := resync.NewEngine(master)
	resA, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}

	// One small change.
	if err := master.Modify(people[0], []dit.Mod{{Op: dit.ModReplace, Attr: "dept", Values: []string{"9"}}}); err != nil {
		t.Fatal(err)
	}

	polled, err := eng.Poll(resA.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	retained, err := eng.PollRetain(resB.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	var tPoll, tRetain, tReload resync.Traffic
	for _, u := range polled.Updates {
		tPoll.Add(u)
	}
	for _, u := range retained.Updates {
		tRetain.Add(u)
	}
	for _, u := range fullReload(master, specSerial04) {
		tReload.Add(u)
	}
	if tPoll.Updates() != 1 {
		t.Errorf("resync shipped %d updates, want 1", tPoll.Updates())
	}
	if !(tPoll.Bytes < tRetain.Bytes && tRetain.Bytes < tReload.Bytes) {
		t.Errorf("expected resync < retain < reload bytes, got %d / %d / %d",
			tPoll.Bytes, tRetain.Bytes, tReload.Bytes)
	}
}
