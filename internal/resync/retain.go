package resync

import (
	"filterdir/internal/dit"
	"filterdir/internal/dn"
)

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
	sess.points = []syncPoint{{name: uint64(csn), csn: csn}}
	res.Cookie = CookieString(sess.id, sess.point())
	e.countPDUs(res.Updates)
	e.observe(sess.id, res.Updates, false)
	return res, nil
}
