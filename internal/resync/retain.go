package resync

import "filterdir/internal/dit"

// PollRetain performs an incomplete-history synchronization per equation
// (3): for every entry currently in the content, either a retain action
// (unchanged since the session's last sync point) or an add/modify with the
// full entry. The session's content map tells adds from modifies. The
// consumer must discard held entries not mentioned in the result.
//
// The content comes from the group's reload snapshot, which positions the
// session as Begin and a reload do (startFull).
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
	// nothing counts as held, so every content entry ships as a full entry
	// and nothing is retained.
	prior, since := sess.content, sess.csn
	if !held {
		prior = nil
	}
	// Retain mode has no per-point resume history (it exists to model an
	// incomplete-history server): the session state is replaced wholesale
	// and only the new point is resumable.
	view := e.startFull(sess)
	// Which DNs changed at all since the sync point? Read after the snapshot,
	// the journal covers at least the changes up to its CSN, so nothing that
	// changed is retained. With trimmed history, everything is considered
	// changed.
	changedDNs := make(map[string]bool)
	changes, haveHistory := e.store.ChangesSince(since)
	for _, c := range changes {
		changedDNs[c.DN.Norm()] = true
		if c.Type == dit.ChangeModifyDN {
			changedDNs[c.NewDN.Norm()] = true
		}
	}

	res := &PollResult{Updates: make([]Update, 0, len(view.updates))}
	for _, u := range view.updates {
		norm := u.DN.Norm()
		_, wasHeld := prior[norm]
		switch {
		case wasHeld && haveHistory && !changedDNs[norm]:
			res.Updates = append(res.Updates, Update{Action: ActionRetain, DN: u.DN})
		case wasHeld:
			res.Updates = append(res.Updates, Update{Action: ActionModify, DN: u.DN, Entry: u.Entry})
		default:
			res.Updates = append(res.Updates, u)
		}
	}
	res.Cookie = CookieString(sess.id, sess.point())
	e.countPDUs(res.Updates)
	e.observe(sess.id, res.Updates, false)
	return res, nil
}
