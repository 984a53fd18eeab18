package resync

import (
	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
)

// This file implements the synchronization baselines the paper compares
// ReSync against (Section 5.2):
//
//   - retain mode (equation 3): the server has no per-session leave history;
//     it sends the DNs of unchanged in-content entries as retain actions
//     plus full entries for changed in-content ones. The consumer deletes
//     whatever it holds that was not mentioned. Converges, at the cost of
//     one retain PDU per unchanged entry.
//   - tombstone sync: deleted entries leave only a DN-bearing tombstone, so
//     the server cannot tell whether a deleted entry was in the content —
//     every deleted DN since the last poll is transmitted.
//   - changelog sync: modify records carry only the changed attributes, so
//     the server cannot evaluate content membership of modifies; it ships
//     raw records and the consumer applies what it can. An entry modified
//     INTO the content is lost (the record lacks the full entry), so the
//     mechanism does not converge.
//   - full reload: the entire content is resent on every poll.

// PollRetain performs an incomplete-history synchronization per equation
// (3): for every entry currently in the content, either a retain action
// (unchanged since the session's last sync point) or an add/modify with the
// full entry. The session's content map tells adds from modifies. The
// consumer must discard held entries not mentioned in the result.
func (e *Engine) PollRetain(cookie string) (*PollResult, error) {
	sess, held, err := e.enter(cookie, exRetain)
	if err != nil {
		return nil, err
	}
	defer sess.mu.Unlock()
	e.stats.RetainPolls.Add(1)
	// The session's content map describes the replica only if the replica
	// is positioned at a known sync point. If the presented point is gone
	// (lost response whose state was already replaced, or evicted history),
	// nothing can be proven held — a DN-only retain would then reference an
	// entry the replica may never have received. Degrade to a full transfer:
	// clear the held set so every content entry ships as a full entry and
	// nothing is retained.
	if !held {
		sess.content = make(map[string]dn.DN)
	}
	// Which DNs changed at all since the sync point? With trimmed history,
	// everything is considered changed.
	changedDNs := make(map[string]bool)
	haveHistory := false
	if changes, ok := e.store.ChangesSince(sess.csn); ok {
		haveHistory = true
		for _, c := range changes {
			changedDNs[c.DN.Norm()] = true
			if c.Type == dit.ChangeModifyDN {
				changedDNs[c.NewDN.Norm()] = true
			}
		}
	}

	res := &PollResult{}
	// Atomic (csn, entries) read: the session may belong to a content group,
	// whose shared-interval cache requires the content map to be exactly the
	// store's content at the recorded CSN (see Engine.Begin).
	csn, entries := e.store.Snapshot(stripAttrs(sess.spec))
	newContent := make(map[string]dn.DN, len(entries))
	for _, ent := range entries {
		norm := ent.DN().Norm()
		newContent[norm] = ent.DN()
		_, held := sess.content[norm]
		unchanged := haveHistory && !changedDNs[norm]
		switch {
		case unchanged && held:
			res.Updates = append(res.Updates, Update{Action: ActionRetain, DN: ent.DN()})
		case held:
			sel := ent.Select(sess.spec.Attrs)
			res.Updates = append(res.Updates, Update{Action: ActionModify, DN: sel.DN(), Entry: sel})
		default:
			sel := ent.Select(sess.spec.Attrs)
			res.Updates = append(res.Updates, Update{Action: ActionAdd, DN: sel.DN(), Entry: sel})
		}
	}
	// Retain mode has no per-point resume history (it exists to model an
	// incomplete-history server): the session state is replaced wholesale
	// and only the new point is resumable.
	sess.content = newContent
	sess.csn = csn
	sess.genSeq++
	sess.points = []syncPoint{{gen: sess.genSeq, csn: csn}}
	res.Cookie = cookieString(sess.id, sess.genSeq)
	e.countPDUs(res.Updates)
	e.observe(sess.id, res.Updates, false)
	return res, nil
}

// TombstoneServer models a master that keeps tombstones instead of
// per-session leave history. Adds and in-content modifies are classified
// exactly (before-images are available for those), but deletions are known
// only by DN — so every deletion since the poll point is transmitted,
// whether or not it affected the content.
type TombstoneServer struct {
	store *dit.Store
}

// NewTombstoneServer wraps a master store.
func NewTombstoneServer(store *dit.Store) *TombstoneServer {
	return &TombstoneServer{store: store}
}

// TombstoneSession is consumer state for tombstone-based sync.
type TombstoneSession struct {
	Spec    query.Query
	lastCSN dit.CSN
	content map[string]bool
}

// Begin starts a tombstone session with a full content transfer.
func (ts *TombstoneServer) Begin(spec query.Query) (*PollResult, *TombstoneSession) {
	sess := &TombstoneSession{Spec: spec, lastCSN: ts.store.LastCSN(), content: make(map[string]bool)}
	res := &PollResult{}
	for _, ent := range ts.store.MatchAll(stripAttrs(spec)) {
		sess.content[ent.DN().Norm()] = true
		res.Updates = append(res.Updates, Update{Action: ActionAdd, DN: ent.DN(), Entry: ent})
	}
	return res, sess
}

// Poll returns updates since the last poll: exact adds/modifies/moved-out
// deletes, plus a delete PDU for EVERY tombstoned (deleted) entry since the
// sync point regardless of content membership — the overhead the paper
// attributes to tombstones.
func (ts *TombstoneServer) Poll(sess *TombstoneSession) (*PollResult, bool) {
	changes, ok := ts.store.ChangesSince(sess.lastCSN)
	if !ok {
		return nil, false
	}
	res := &PollResult{}
	inContent := func(ent *entry.Entry) bool {
		if ent == nil {
			return false
		}
		return sess.Spec.InScope(ent.DN()) && specFilter(sess.Spec).Matches(ent)
	}
	for _, c := range changes {
		switch c.Type {
		case dit.ChangeAdd:
			if inContent(c.After) {
				res.Updates = append(res.Updates, Update{Action: ActionAdd, DN: c.DN, Entry: c.After})
				sess.content[c.DN.Norm()] = true
			}
		case dit.ChangeModify:
			norm := c.DN.Norm()
			was := sess.content[norm]
			is := inContent(c.After)
			switch {
			case was && is:
				res.Updates = append(res.Updates, Update{Action: ActionModify, DN: c.DN, Entry: c.After})
			case was && !is:
				res.Updates = append(res.Updates, Update{Action: ActionDelete, DN: c.DN})
				delete(sess.content, norm)
			case !was && is:
				res.Updates = append(res.Updates, Update{Action: ActionAdd, DN: c.DN, Entry: c.After})
				sess.content[norm] = true
			}
		case dit.ChangeModifyDN:
			oldNorm := c.DN.Norm()
			if sess.content[oldNorm] {
				res.Updates = append(res.Updates, Update{Action: ActionDelete, DN: c.DN})
				delete(sess.content, oldNorm)
			}
			if inContent(c.After) {
				res.Updates = append(res.Updates, Update{Action: ActionAdd, DN: c.NewDN, Entry: c.After})
				sess.content[c.NewDN.Norm()] = true
			}
		case dit.ChangeDelete:
			// The tombstone carries no attributes: the server cannot decide
			// content membership and must ship the DN unconditionally.
			res.Updates = append(res.Updates, Update{Action: ActionDelete, DN: c.DN})
			delete(sess.content, c.DN.Norm())
		}
	}
	if len(changes) > 0 {
		sess.lastCSN = changes[len(changes)-1].CSN
	}
	return res, true
}

// ChangelogRecord is a raw changelog entry as shipped to consumers: the
// operation, the DN, and for modifies only the changed attributes.
type ChangelogRecord struct {
	Type  dit.ChangeType
	DN    dn.DN
	NewDN dn.DN
	// Entry is the full entry for adds (the changelog stores the add
	// payload); nil otherwise.
	Entry *entry.Entry
	Mods  []dit.Mod
}

// ByteSize estimates the record's wire size.
func (r ChangelogRecord) ByteSize() int {
	n := len(r.DN.String()) + 8
	if r.Entry != nil {
		n += r.Entry.ByteSize()
	}
	for _, m := range r.Mods {
		n += len(m.Attr) + 4
		for _, v := range m.Values {
			n += len(v) + 2
		}
	}
	return n
}

// ChangelogServer ships raw changelog records in scope; it cannot evaluate
// the filter for modify records (no before/after images in a changelog).
type ChangelogServer struct {
	store *dit.Store
}

// NewChangelogServer wraps a master store.
func NewChangelogServer(store *dit.Store) *ChangelogServer {
	return &ChangelogServer{store: store}
}

// Since returns the raw changelog records with CSN greater than after whose
// target lies in the base/scope region of spec. Records for adds carry the
// full entry (and are filtered, since the server can evaluate an add); all
// modify/delete/modifyDN records in scope must be shipped.
func (cs *ChangelogServer) Since(spec query.Query, after dit.CSN) ([]ChangelogRecord, dit.CSN, bool) {
	changes, ok := cs.store.ChangesSince(after)
	if !ok {
		return nil, after, false
	}
	var out []ChangelogRecord
	last := after
	region := query.Query{Base: spec.Base, Scope: spec.Scope}
	for _, c := range changes {
		last = c.CSN
		switch c.Type {
		case dit.ChangeAdd:
			if region.InScope(c.DN) && specFilter(spec).Matches(c.After) {
				out = append(out, ChangelogRecord{Type: c.Type, DN: c.DN, Entry: c.After})
			}
		case dit.ChangeModify:
			if region.InScope(c.DN) {
				out = append(out, ChangelogRecord{Type: c.Type, DN: c.DN, Mods: c.Mods})
			}
		case dit.ChangeDelete:
			if region.InScope(c.DN) {
				out = append(out, ChangelogRecord{Type: c.Type, DN: c.DN})
			}
		case dit.ChangeModifyDN:
			if region.InScope(c.DN) || region.InScope(c.NewDN) {
				out = append(out, ChangelogRecord{Type: c.Type, DN: c.DN, NewDN: c.NewDN})
			}
		}
	}
	return out, last, true
}

// ChangelogConsumer applies raw changelog records to a replica content set.
// Modify records can only be applied to held entries; an entry modified
// into the content is silently missed — the convergence failure the paper
// describes. Bytes counts shipped record sizes.
type ChangelogConsumer struct {
	Spec    query.Query
	Entries map[string]*entry.Entry // norm DN -> held entry
	Bytes   int
	Records int
	// MissedMoveIns counts modify records that would have moved an unheld
	// entry into the content (detectable only by this test harness, not by
	// a real consumer).
	MissedMoveIns int
}

// NewChangelogConsumer creates a consumer holding the initial content.
func NewChangelogConsumer(spec query.Query, initial []*entry.Entry) *ChangelogConsumer {
	c := &ChangelogConsumer{Spec: spec, Entries: make(map[string]*entry.Entry, len(initial))}
	for _, e := range initial {
		c.Entries[e.DN().Norm()] = e.Clone()
	}
	return c
}

// Apply consumes records, mutating the held content.
func (c *ChangelogConsumer) Apply(records []ChangelogRecord) {
	for _, r := range records {
		c.Records++
		c.Bytes += r.ByteSize()
		switch r.Type {
		case dit.ChangeAdd:
			if specFilter(c.Spec).Matches(r.Entry) && c.Spec.InScope(r.DN) {
				c.Entries[r.DN.Norm()] = r.Entry.Clone()
			}
		case dit.ChangeDelete:
			delete(c.Entries, r.DN.Norm())
		case dit.ChangeModify:
			held, ok := c.Entries[r.DN.Norm()]
			if !ok {
				// The record lacks the full entry; a real consumer cannot
				// construct it. Convergence is lost if the modify moved the
				// entry into the content.
				continue
			}
			applyMods(held, r.Mods)
			if !specFilter(c.Spec).Matches(held) {
				delete(c.Entries, r.DN.Norm())
			}
		case dit.ChangeModifyDN:
			if held, ok := c.Entries[r.DN.Norm()]; ok {
				delete(c.Entries, r.DN.Norm())
				held.SetDN(r.NewDN)
				if c.Spec.InScope(r.NewDN) {
					c.Entries[r.NewDN.Norm()] = held
				}
			}
		}
	}
}

func applyMods(e *entry.Entry, mods []dit.Mod) {
	for _, m := range mods {
		switch m.Op {
		case dit.ModAdd:
			e.Add(m.Attr, m.Values...)
		case dit.ModReplace:
			if len(m.Values) == 0 {
				if e.Has(m.Attr) {
					_ = e.DeleteValues(m.Attr)
				}
			} else {
				e.Put(m.Attr, m.Values...)
			}
		case dit.ModDelete:
			_ = e.DeleteValues(m.Attr, m.Values...)
		}
	}
}

// FullReload returns the entire current content as add actions — the
// maximal-traffic baseline.
func FullReload(store *dit.Store, spec query.Query) []Update {
	entries := store.MatchAll(stripAttrs(spec))
	out := make([]Update, 0, len(entries))
	for _, ent := range entries {
		sel := ent.Select(spec.Attrs)
		out = append(out, Update{Action: ActionAdd, DN: sel.DN(), Entry: sel})
	}
	return out
}
