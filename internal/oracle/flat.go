package oracle

import (
	"errors"
	"strings"
	"time"

	"filterdir/internal/resync"
)

// flat is the Flat preset's topology: one master engine and one simulated
// consumer per spec, driven event by event.
type flat struct {
	*hist
	eng  *resync.Engine
	reps []*consumer
}

// runFlat executes one engine-level history against a fresh engine.
func runFlat(cfg Config, hseed int64, events []Event, rep *Report) *Failure {
	h, f := newHist(cfg, hseed, rep, synthConfig(hseed, cfg.Shards))
	if f != nil {
		return f
	}
	x := &flat{hist: h, eng: resync.NewEngine(h.st), reps: consumers(cfg.specList())}
	if rep != nil {
		x.eng.SetObserver(func(_ string, ups []resync.Update, _ bool) {
			for _, u := range ups {
				rep.Traffic.Add(u)
			}
			rep.TrafficHash = foldUpdates(rep.TrafficHash, ups)
		})
		defer func() {
			snap := x.eng.Counters().Snapshot()
			rep.SharedClassifyHits += snap.SharedClassifyHits
			rep.SharedClassifyMisses += snap.SharedClassifyMisses
			rep.ReloadSnapshotsBuilt += snap.ReloadSnapshotsBuilt
			rep.ReloadSnapshotsShared += snap.ReloadSnapshotsShared
		}()
	}
	if cfg.BeginTogether {
		for _, c := range x.reps {
			if f := x.poll(c, false); f != nil {
				return f
			}
		}
	}
	if f := h.play(events, x.exec); f != nil {
		return f
	}
	if rep != nil {
		for _, c := range x.reps {
			rep.ContentHash = foldContent(rep.ContentHash, c.content)
		}
		rep.ContentHash = foldEntries(rep.ContentHash, h.st.All())
	}
	return nil
}

func (x *flat) exec(ev Event) *Failure {
	c := x.reps[ev.Rep]
	switch ev.Kind {
	case EvPoll:
		return x.poll(c, ev.Lost)
	case EvRetain:
		return x.retain(c, ev.Lost)
	case EvPersist:
		return x.persist(c)
	case EvBadCookie:
		return x.badCookie(c)
	case EvEnd:
		if c.begun {
			_ = x.eng.End(c.cookie) // replica learns on its next exchange
		}
		return nil
	}
	return x.fail("unknown event kind %d", ev.Kind)
}

func (x *flat) poll(c *consumer, lost bool) *Failure {
	_, f := x.exchange(x.eng, c, lost, x.mdl)
	return f
}

// retain performs one incomplete-history (equation 3) exchange: the
// consumer keeps what is mentioned (retain keeps the held copy) and drops
// everything unmentioned.
func (x *flat) retain(c *consumer, lost bool) *Failure {
	if !c.begun {
		return x.poll(c, lost)
	}
	res, err := x.eng.PollRetain(c.cookie)
	if lost {
		return nil
	}
	if errors.Is(err, resync.ErrNoSuchSession) {
		c.begun = false
		return x.poll(c, false)
	}
	if err != nil {
		return x.fail("retain poll %q: %v", c.spec, err)
	}
	if x.rep != nil {
		x.rep.Polls++
	}
	ref := x.mdl.selection(c.spec)
	newContent := make(model)
	for _, u := range res.Updates {
		norm := u.DN.Norm()
		if _, seen := newContent[norm]; seen {
			return x.fail("retain poll %q: %s mentioned twice", c.spec, u.DN)
		}
		switch u.Action {
		case resync.ActionAdd, resync.ActionModify:
			newContent[norm] = u.Entry
		case resync.ActionRetain:
			held, ok := c.content[norm]
			if !ok {
				return x.fail("retain poll %q: retain of %s which the replica does not hold", c.spec, u.DN)
			}
			newContent[norm] = held
		case resync.ActionDelete:
			return x.fail("retain poll %q: delete PDU in retain mode for %s", c.spec, u.DN)
		}
	}
	// Every selected entry must be mentioned exactly once and nothing else:
	// the consumer's drop-unmentioned rule is only sound then.
	if len(res.Updates) != len(ref) {
		return x.fail("retain poll %q: mentioned %d entries, selection has %d", c.spec, len(res.Updates), len(ref))
	}
	c.content, c.cookie = newContent, res.Cookie
	return x.converged(c, ref)
}

// persist upgrades the replica's session to persist mode at its current
// cookie, drains the pending batch (the master is quiescent during the
// event, so at most one batch is due), lands it, and downgrades again —
// exercising rollback-without-ack plus recompute, including
// modify-then-revert intervals under persist mode.
func (x *flat) persist(c *consumer) *Failure {
	if !c.begun {
		return x.poll(c, false)
	}
	sub, err := x.eng.Persist(c.cookie)
	if errors.Is(err, resync.ErrNoSuchSession) {
		// Unknown or ended sync point: the consumer must poll instead (and
		// will receive a reload or re-begin).
		return x.poll(c, false)
	}
	if err != nil {
		return x.fail("persist %q: %v", c.spec, err)
	}
	drained := &resync.PollResult{Cookie: c.cookie}
	if diff := describeDiff(c.content, x.mdl.selection(c.spec)); diff != "" {
		// Updates are due: exactly one batch covers the whole interval.
		select {
		case b, ok := <-sub.Updates:
			if !ok {
				// Stream ended (journal no longer covers the position): the
				// consumer falls back to a poll, which carries the reload.
				sub.Close()
				return x.poll(c, false)
			}
			drained = &resync.PollResult{Updates: b.Updates, Cookie: b.Cookie}
		case <-time.After(2 * time.Second):
			sub.Close()
			return x.fail("persist %q: replica out of date but no batch pushed:\n%s", c.spec, diff)
		}
	}
	sub.Close()
	return x.land(c, drained, false, x.mdl)
}

// badCookie polls with a corrupted generation: the only safe engine answer
// is a full reload.
func (x *flat) badCookie(c *consumer) *Failure {
	if !c.begun {
		return nil
	}
	res, err := x.eng.Poll(corruptCookie(c.cookie))
	if errors.Is(err, resync.ErrNoSuchSession) {
		return nil // corrupt session id part; nothing to check
	}
	if err != nil {
		return x.fail("corrupt-cookie poll %q: %v", c.spec, err)
	}
	if !res.FullReload {
		return x.fail("corrupt-cookie poll %q: engine answered incrementally to an unknown sync point", c.spec)
	}
	return x.land(c, res, true, x.mdl)
}

// corruptCookie replaces the generation part with one that never existed.
func corruptCookie(cookie string) string {
	if i := strings.LastIndexByte(cookie, '@'); i >= 0 {
		return cookie[:i] + "@999999999"
	}
	return cookie + "@999999999"
}
