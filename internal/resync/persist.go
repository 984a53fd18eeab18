package resync

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Batch is one pushed unit of a persist-mode subscription: the updates of
// one committed change interval plus the sync point the replica reaches by
// applying them. A stream serves one session, so the consumer composes the
// point's cookie (CookieString) from that session; one that adopts the
// cookie (and presents it when it later polls) acknowledges everything up to
// the batch, and one that crashes mid-stream re-presents its last adopted
// cookie and the missed batches are recomputed.
type Batch struct {
	Updates []Update
	// Point names the sync point: the CSN whose content it holds (DESIGN.md
	// §8), which on a cascade tier is a local CSN, not the watermark below.
	Point uint64
	// CSN is the master-position watermark the batch syncs the consumer to
	// (see PollResult.CSN).
	CSN uint64
	// Enc, when non-nil, memoizes the wire encoding of each update: a
	// batch fanned out to many sessions of one content view is BER-encoded
	// once, not once per session.
	Enc *SharedEnc
}

// SharedEnc memoizes the wire encoding of a shared batch: per update, the
// message tail (op TLV + controls) that follows the message ID, so the
// per-consumer work shrinks to stamping a message ID. A pushed batch ends in
// a tail of its own (GetFinal), whose control names the sync point reached:
// the one every member crossing the batch's interval reaches, named by the
// CSN the interval ends at (point). Safe for concurrent use.
type SharedEnc struct {
	point uint64

	mu       sync.Mutex
	tail     [][]byte
	final    []byte
	finalCSN uint64
}

// GetTail returns the tail of update i, built via build (which must not call
// back into the memo) on first use. The second result reports whether build
// ran, i.e. whether this call paid for the encoding.
func (s *SharedEnc) GetTail(i int, build func() ([]byte, error)) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < len(s.tail) && s.tail[i] != nil {
		return s.tail[i], false, nil
	}
	b, err := build()
	if err != nil {
		return nil, true, err
	}
	if i >= len(s.tail) {
		s.tail = append(s.tail, make([][]byte, i+1-len(s.tail))...)
	}
	s.tail[i] = b
	return b, true, nil
}

// GetFinal is GetTail for the tail that ends a pushed batch at sync point
// point, stamped with watermark csn. A point named otherwise — rebuilt under
// an older name (DESIGN.md §8) — or a watermark other than the first (a
// tier's can rise between two polls) gets a tail built for it alone.
func (s *SharedEnc) GetFinal(point, csn uint64, build func() ([]byte, error)) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	shared := point == s.point && (s.final == nil || csn == s.finalCSN)
	if shared && s.final != nil {
		return s.final, false, nil
	}
	b, err := build()
	if shared && err == nil {
		s.final, s.finalCSN = b, csn
	}
	return b, true, err
}

// Subscription is a persist-mode synchronization: after the initial content
// (or the updates since the resumed cookie) is delivered, subsequent content
// changes are pushed to it until it ends — the protocol's "persist" mode,
// equivalent to a persistent search held open per filter.
//
// The subscription is its bounded queue: the group's broadcaster fills it
// (group.syncOne) and its one consumer empties it with Next, so the engine
// is on the dequeue side of the queue and no goroutine of its own stands
// between the two.
type Subscription struct {
	g    *group
	sess *session
	ch   chan Batch
	// took is when the consumer last took a batch (UnixNano), or when the
	// subscription attached: how long the consumer has made no progress.
	took atomic.Int64
	// skipped is raised by the broadcaster before it looks at the queue and
	// left up when it found it full; the next dequeue lowers it and kicks
	// the cycle the subscription is owed.
	skipped atomic.Bool
}

// Next waits for the next batch of net updates. It reports false once the
// subscription has ended and its queue is drained: after Close, and when
// the engine ends the stream — the master's journal history no longer covers
// the stream position (the consumer must fall back to a poll, which will
// carry the full reload) or the slow-consumer policy demoted a lagging
// stream back to poll mode. One goroutine at a time may call Next.
func (s *Subscription) Next() (Batch, bool) {
	b, ok := <-s.ch
	if ok {
		s.dequeued()
	}
	return b, ok
}

// dequeued stamps a dequeue. A skipped subscription stands at an old sync
// point with nothing but the next store commit to move it — and when the
// write stream stops right after the skip there is none — so the dequeue
// that makes room again wakes the broadcaster itself.
func (s *Subscription) dequeued() {
	s.took.Store(time.Now().UnixNano())
	if s.skipped.CompareAndSwap(true, false) {
		s.g.kick()
	}
}

// Close ends the subscription; it is idempotent, may be called from any
// goroutine, and a Next waiting meanwhile returns. On return the stream no
// longer advances the session; it stays registered and resumable by cookie.
// When it was the group's last, the group's broadcaster has exited too.
func (s *Subscription) Close() {
	done := s.g.remove(s)
	for range s.ch {
		// Batches queued but not taken are not delivered.
	}
	// Barrier: wait out any in-flight update cycle so the session is
	// quiescent once Close returns.
	s.g.cycleMu.Lock()
	//lint:ignore SA2001 empty critical section is the barrier
	s.g.cycleMu.Unlock()
	if done != nil {
		<-done
	}
}

// Persist upgrades a session to persist mode: the returned subscription
// pushes each change batch committed after the presented sync point. The
// cookie must name a live sync point; newer unacknowledged points are
// rolled back (their updates will be re-pushed) but nothing is
// acknowledged — a streamed batch is only acknowledged when the consumer
// later presents its cookie. The session remains registered; Close leaves
// it resumable by cookie (poll mode), matching the protocol's mode switch
// in Figure 3.
//
// The session's group broadcaster serves the stream — one update cycle per
// commit for the whole group — into the subscription's bounded queue, with
// the slow-consumer policy described in group.go.
func (e *Engine) Persist(cookie string) (*Subscription, error) {
	sess, held, err := e.enter(cookie, exStream)
	if err != nil {
		return nil, err
	}
	sess.mu.Unlock()
	if !held {
		// An unknown sync point cannot be streamed from incrementally; the
		// consumer must poll (getting a full reload) and re-subscribe.
		return nil, fmt.Errorf("%w: %q", ErrNoSuchSession, cookie)
	}
	e.stats.PersistStreams.Add(1)
	return sess.group.attach(sess), nil
}
