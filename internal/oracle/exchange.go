package oracle

import (
	"errors"

	"filterdir/internal/entry"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
)

// consumer is the simulated consumer of one spec at the engine level: the
// cookie it has adopted and the content it has applied. A mid-tier consumer
// also applies every answer to frep, as cascade.Tier's supervisor does, and
// its content is then frep's store.
type consumer struct {
	spec    query.Query
	cookie  string
	content model
	begun   bool
	frep    *replica.FilterReplica
}

func consumers(specs []query.Query) []*consumer {
	out := make([]*consumer, len(specs))
	for i, spec := range specs {
		out[i] = &consumer{spec: spec, content: make(model)}
	}
	return out
}

// exchange is one consumer exchange with the supplier engine eng: Begin if
// the consumer has not begun, else Poll, re-Beginning on a stale session
// like the supervisor. With lost set the supplier answers but the consumer
// never sees the response — the at-least-once delivery case the cookie
// protocol exists for. Otherwise the answer lands (see land) against at, the
// supplier's content as the reference has it. The result is nil when lost.
func (h *hist) exchange(eng *resync.Engine, c *consumer, lost bool, at model) (*resync.PollResult, *Failure) {
	var res *resync.PollResult
	var err error
	full := !c.begun
	if full {
		res, err = eng.Begin(c.spec)
	} else if res, err = eng.Poll(c.cookie); errors.Is(err, resync.ErrNoSuchSession) && !lost {
		res, err = eng.Begin(c.spec)
		full = true
	}
	if lost {
		return nil, nil // response dropped on the wire; consumer state untouched
	}
	if err != nil {
		return nil, h.fail("poll %q: %v", c.spec, err)
	}
	return res, h.land(c, res, full || res.FullReload, at)
}

// land applies an answer to the consumer and checks minimality — a full
// transfer must be a pure add set, an incremental answer exactly the net
// difference between what the consumer held and the reference selection of
// its spec over at — then adopts the cookie and checks convergence.
func (h *hist) land(c *consumer, res *resync.PollResult, full bool, at model) *Failure {
	if h.rep != nil {
		h.rep.Polls++
	}
	ref := at.selection(c.spec)
	before := c.content
	if full {
		for _, u := range res.Updates {
			if u.Action != resync.ActionAdd {
				return h.fail("full transfer for %q contains %s PDU for %s", c.spec, u.Action, u.DN)
			}
		}
	}
	switch {
	case c.frep != nil:
		if full {
			c.frep.RemoveStored(c.spec)
			c.frep.AddStored(c.spec, res.Cookie)
		}
		if err := c.frep.ApplySync(c.spec, res.Updates); err != nil {
			return h.fail("mid apply %q: %v", c.spec, err)
		}
		c.content = snapshot(c.frep.Store())
	case full:
		c.content = make(model)
		for _, u := range res.Updates {
			c.content[u.DN.Norm()] = u.Entry
		}
	default:
		c.content = before.clone()
		if f := h.applyIncremental(c, res.Updates); f != nil {
			return f
		}
	}
	if !full {
		if f := h.checkMinimal(c.spec, before, ref, res.Updates); f != nil {
			return f
		}
	}
	c.cookie, c.begun = res.Cookie, true
	return h.converged(c, ref)
}

// applyIncremental applies a net update set to the consumer's content.
func (h *hist) applyIncremental(c *consumer, updates []resync.Update) *Failure {
	for _, u := range updates {
		norm := u.DN.Norm()
		switch u.Action {
		case resync.ActionAdd, resync.ActionModify:
			img := u.Image(heldFor(c.content, u))
			if img == nil {
				return h.fail("patch for %s, which replica %q does not hold", u.DN, c.spec)
			}
			if u.IsMove() {
				delete(c.content, u.OldDN.Norm())
			}
			c.content[norm] = img
		case resync.ActionDelete:
			if !h.cfg.BreakE10 { // test-only injected consumer fault
				delete(c.content, norm)
			}
		case resync.ActionRetain:
			return h.fail("retain PDU outside retain mode for %q (dn %s)", c.spec, u.DN)
		default:
			return h.fail("unknown action %v for %q", u.Action, c.spec)
		}
	}
	return nil
}

// heldFor is what a consumer holding content applies u on top of: the entry
// at the update's DN, or for a move the one at its old DN — at the new DN
// only if the old one is gone (a redelivered move).
func heldFor(content model, u resync.Update) *entry.Entry {
	if u.IsMove() {
		if held, ok := content[u.OldDN.Norm()]; ok {
			return held
		}
	}
	return content[u.DN.Norm()]
}

// checkMinimal asserts the update set is exactly the net difference between
// the replica's pre-exchange content and the reference selection: nothing
// missing, nothing redundant, no duplicates. A move counts as the delete of
// its old DN plus the add of its new one, and is judged by the image it
// leaves: the entry held at the old DN, re-keyed and patched.
func (h *hist) checkMinimal(spec query.Query, before, ref model, updates []resync.Update) *Failure {
	wantAdd := make(model)
	wantMod := make(model)
	wantDel := make(map[string]bool)
	for norm, ent := range ref {
		b, held := before[norm]
		switch {
		case !held:
			wantAdd[norm] = ent
		case !b.Equal(ent):
			wantMod[norm] = ent
		}
	}
	for norm := range before {
		if _, ok := ref[norm]; !ok {
			wantDel[norm] = true
		}
	}
	seen := make(map[string]bool)
	var adds, mods, dels int
	for _, u := range updates {
		norm := u.DN.Norm()
		keys := []string{u.Action.String() + " " + norm}
		if u.IsMove() {
			keys = []string{"delete " + u.OldDN.Norm(), "add " + norm}
		}
		for _, key := range keys {
			if seen[key] {
				return h.fail("%q: duplicate %s", spec, key)
			}
			seen[key] = true
		}
		if u.IsMove() {
			want, ok := wantAdd[norm]
			if !ok || !wantDel[u.OldDN.Norm()] {
				return h.fail("%q: redundant move %s <- %s (not a delete plus an add of the minimal set)", spec, u.DN, u.OldDN)
			}
			if got := u.Image(before[u.OldDN.Norm()]); !got.Equal(want) {
				return h.fail("%q: move %s <- %s leaves the wrong entry:\n  got  %s\n  want %s", spec, u.DN, u.OldDN, got, want)
			}
			adds++
			dels++
			continue
		}
		switch u.Action {
		case resync.ActionAdd:
			want, ok := wantAdd[norm]
			if !ok {
				return h.fail("%q: redundant add of %s (not in minimal set)", spec, u.DN)
			}
			if !u.Entry.Equal(want) {
				return h.fail("%q: add of %s carries wrong entry:\n  got  %s\n  want %s", spec, u.DN, u.Entry, want)
			}
			adds++
		case resync.ActionModify:
			want, ok := wantMod[norm]
			if !ok {
				return h.fail("%q: redundant modify of %s (net-unchanged or unheld)", spec, u.DN)
			}
			// A patch is judged by the image it leaves on what was held.
			if got := u.Image(before[norm]); !got.Equal(want) {
				return h.fail("%q: modify of %s carries wrong entry:\n  got  %s\n  want %s", spec, u.DN, got, want)
			}
			mods++
		case resync.ActionDelete:
			if !wantDel[norm] {
				return h.fail("%q: redundant delete of %s", spec, u.DN)
			}
			dels++
		case resync.ActionRetain:
			return h.fail("%q: retain PDU outside retain mode", spec)
		}
	}
	if adds != len(wantAdd) || mods != len(wantMod) || dels != len(wantDel) {
		return h.fail("%q: update set not minimal-complete: got %d/%d/%d add/mod/del, want %d/%d/%d",
			spec, adds, mods, dels, len(wantAdd), len(wantMod), len(wantDel))
	}
	return nil
}

// converged asserts the consumer's content equals the reference selection.
func (h *hist) converged(c *consumer, ref model) *Failure {
	if diff := describeDiff(c.content, ref); diff != "" {
		return h.fail("%q diverged from the reference:\n%s", c.spec, diff)
	}
	return nil
}
