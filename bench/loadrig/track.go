package main

import (
	"sync"
	"sync/atomic"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
)

type commitKind uint8

const (
	kindModify commitKind = iota
	kindAdd
	kindDelete
	kindRename
)

// markerAttr carries the writer's sequence number: the content a leaf must
// hold before a commit counts as having reached it.
const markerAttr = "telephoneNumber"

// commit is one generated update and what the rig learned about it.
type commit struct {
	seq    int
	kind   commitKind
	dn     dn.DN
	attr   string       // modify: attribute replaced (markerAttr, or description on departments)
	marker string       // modify: the value written
	entry  *entry.Entry // add: the new entry (carries the marker)
	newRDN dn.RDN       // rename
	parent dn.DN
	newDN  dn.DN
	// pool, target and poolAt say where the target of a non-add commit was
	// drawn from, so an unsent commit can be handed back. prev and next
	// chain the commits drawn on one target, oldest first; they are written
	// while the stream is generated, before any of its commits is sent.
	pool       *targetPool
	target     int // index into the pool
	poolAt     int // slot of the pool's order the target came from
	prev, next *commit
	// specs is the set of distinct content specs (bit i = topology.specs[i])
	// that hold the commit's post-image (pre-image for a delete).
	specs uint64

	timed bool // issued in an open-loop phase: latencies are recorded
	due   time.Time
	// midAt is when the matching mid-tier's store first held the commit
	// (UnixNano; traced cascade runs only).
	midAt atomic.Int64
}

// reached reports whether the store's content reflects the commit: its own
// marker, or — the store applied both in one batch, so this one's marker
// never showed — that of a later commit on the same target.
func (c *commit) reached(st *dit.Store) bool {
	for ; c != nil; c = c.next {
		if c.visible(st) {
			return true
		}
	}
	return false
}

func (c *commit) visible(st *dit.Store) bool {
	switch c.kind {
	case kindModify:
		e, ok := st.Get(c.dn)
		return ok && e.First(c.attr) == c.marker
	case kindAdd:
		_, ok := st.Get(c.dn)
		return ok
	case kindDelete:
		_, ok := st.Get(c.dn)
		return !ok
	default:
		_, ok := st.Get(c.newDN)
		return ok
	}
}

// storeTracker follows one replicated store (a leaf supervisor's content,
// or a mid-tier's) and timestamps the moment each expected commit becomes
// visible in it. Commits reach a store roughly in commit order, so the
// pending list stays short; every check looks at all of it, so one marker
// that never shows cannot hide the ones behind it.
type storeTracker struct {
	store *dit.Store
	mid   bool // a mid-tier: stamps commit.midAt instead of sampling
	// tr and node label the mid.applied / leaf.applied trace events.
	tr   *tracer
	node string

	mu      sync.Mutex
	pending []*commit
	// reachMs holds due→visible latencies of timed commits; hop2Ms the
	// mid-visible→leaf-visible share of them (cascade, traced).
	reachMs []float64
	hop2Ms  []float64
	late    int // timed commits that missed reachDeadlineMs
}

func (t *storeTracker) expect(c *commit) {
	t.mu.Lock()
	t.pending = append(t.pending, c)
	t.mu.Unlock()
}

// check is the supervisor's OnApplied hook (and the mid watcher's wake-up):
// it must not block, and it does not — one lock, a few map lookups.
func (t *storeTracker) check() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.pending) == 0 {
		return
	}
	now := time.Now()
	keep := t.pending[:0]
	for _, c := range t.pending {
		if !c.reached(t.store) {
			keep = append(keep, c)
			continue
		}
		if t.mid {
			c.midAt.CompareAndSwap(0, now.UnixNano())
			t.tr.event(int64(c.seq), "mid.applied", t.node)
			continue
		}
		t.tr.event(int64(c.seq), "leaf.applied", t.node)
		if !c.timed {
			continue
		}
		ms := float64(now.Sub(c.due)) / 1e6
		if ms > reachDeadlineMs {
			ms = reachDeadlineMs
			t.late++
		}
		t.reachMs = append(t.reachMs, ms)
		if at := c.midAt.Load(); at != 0 {
			t.hop2Ms = append(t.hop2Ms, float64(now.UnixNano()-at)/1e6)
		}
	}
	for i := len(keep); i < len(t.pending); i++ {
		t.pending[i] = nil
	}
	t.pending = keep
}

func (t *storeTracker) outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending)
}

// abandon gives up on whatever is still pending: each timed commit is
// recorded at the deadline value and counted late. It returns how many
// commits were never observed.
func (t *storeTracker) abandon() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.pending)
	for _, c := range t.pending {
		if c.timed && !t.mid {
			t.reachMs = append(t.reachMs, reachDeadlineMs)
			t.late++
		}
	}
	t.pending = nil
	return n
}

// take returns and clears the samples gathered since the last call.
func (t *storeTracker) take() (reach, hop2 []float64, late int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	reach, hop2, late = t.reachMs, t.hop2Ms, t.late
	t.reachMs, t.hop2Ms, t.late = nil, nil, 0
	return reach, hop2, late
}

// nudgeAfter is how long drain waits for stragglers before it issues a
// nudge, and between nudges.
const nudgeAfter = 100 * time.Millisecond

// drain waits until every tracker has seen everything it expects, checking
// on the callers' behalf too (an apply may have landed just before the
// expectation was registered). It reports how long that took and whether
// the limit was hit.
//
// The master pushes to a persist subscriber only in a cycle that a store
// commit triggers, and skips a subscriber whose queue is full. When the
// write stream stops right after such a skip, that subscriber's backlog
// stays undelivered until the next commit, whenever that comes. The rig's
// streams do stop, so while commits are outstanding drain calls nudge —
// one more write at the master, outside every spec — every nudgeAfter.
func drain(trackers []*storeTracker, limit time.Duration, nudge func()) (time.Duration, bool) {
	start := time.Now()
	nextNudge := start.Add(nudgeAfter)
	for {
		left := 0
		for _, t := range trackers {
			t.check()
			left += t.outstanding()
		}
		if left == 0 {
			return time.Since(start), true
		}
		if time.Since(start) > limit {
			return time.Since(start), false
		}
		if time.Now().After(nextNudge) {
			nudge()
			nextNudge = time.Now().Add(nudgeAfter)
		}
		time.Sleep(500 * time.Microsecond)
	}
}
