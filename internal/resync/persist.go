package resync

import (
	"fmt"
	"sync"
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
// The stream is its consumer's goroutine polling the session whenever the
// store has committed (Next). A consumer slower than the store holds no
// backlog: its next poll covers everything committed meanwhile as one net
// batch, classified and encoded once per group (group.go).
type Subscription struct {
	e    *Engine
	sess *session
	// first is the batch Persist's own poll found due, until Next hands it
	// out.
	first Batch
	// done is closed when the stream ends: by Close, or by a poll that
	// cannot continue it.
	done     chan struct{}
	doneOnce sync.Once
}

// Next waits for the next batch of net updates. It reports false once the
// subscription has ended: after Close, once the session is ended (End, or a
// tier's Kick), and when the master's journal history no longer covers the
// stream position (the consumer must fall back to a poll, which will carry
// the full reload). One goroutine at a time may call Next.
func (s *Subscription) Next() (Batch, bool) {
	for {
		// Armed before the poll, so a commit landing during it is not missed.
		sig := s.e.store.ChangeSignal()
		if b, ok := s.step(); !ok || len(b.Updates) > 0 {
			return b, ok
		}
		select {
		case <-sig:
		case <-s.done:
		case <-s.sess.ended:
		}
	}
}

// step is one turn of the stream without waiting: the batch Persist found
// due, else one poll of the session. An empty batch means nothing is due.
func (s *Subscription) step() (Batch, bool) {
	s.sess.mu.Lock()
	defer s.sess.mu.Unlock()
	if closed(s.done) || closed(s.sess.ended) {
		s.end()
		return Batch{}, false
	}
	if b := s.first; len(b.Updates) > 0 {
		s.first = Batch{}
		return b, true
	}
	return s.poll()
}

// poll advances the session by one poll; the caller holds sess.mu.
func (s *Subscription) poll() (Batch, bool) {
	res, err := s.e.poll(s.sess)
	if err != nil || res.FullReload {
		// A push stream cannot convey a reload; end it — the consumer's
		// fallback poll re-delivers the content.
		s.end()
		return Batch{}, false
	}
	return Batch{Updates: res.Updates, Point: s.sess.point(), CSN: res.CSN, Enc: res.Enc}, true
}

func (s *Subscription) end() { s.doneOnce.Do(func() { close(s.done) }) }

// closed reports whether ch is closed.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// Close ends the subscription; it is idempotent, may be called from any
// goroutine, and a Next waiting meanwhile returns. On return the stream no
// longer advances the session: Close waits out a poll in flight, and any
// later one sees the stream ended. The session stays registered and
// resumable by cookie.
func (s *Subscription) Close() {
	s.end()
	s.sess.mu.Lock()
	//lint:ignore SA2001 empty critical section is the barrier
	s.sess.mu.Unlock()
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
// The stream's first poll runs here, before Persist returns: a stream
// resumed behind the head has its due batch — and its session advanced — by
// the time the caller holds the subscription, so a consumer that closes it
// straight away leaves the session at a position that does not depend on
// goroutine scheduling. Next hands that batch out first.
func (e *Engine) Persist(cookie string) (*Subscription, error) {
	sess, held, err := e.enter(cookie, exStream)
	if err != nil {
		return nil, err
	}
	defer sess.mu.Unlock()
	if !held {
		// An unknown sync point cannot be streamed from incrementally; the
		// consumer must poll (getting a full reload) and re-subscribe.
		return nil, fmt.Errorf("%w: %q", ErrNoSuchSession, cookie)
	}
	e.stats.PersistStreams.Add(1)
	sub := &Subscription{e: e, sess: sess, done: make(chan struct{})}
	sub.first, _ = sub.poll()
	return sub, nil
}
