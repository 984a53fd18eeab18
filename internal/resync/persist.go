package resync

import (
	"fmt"
	"sync"
)

// Batch is one pushed unit of a persist-mode subscription: the updates of
// one committed change interval plus the cookie naming the sync point the
// replica reaches by applying them. A consumer that adopts the cookie (and
// presents it when it later polls) acknowledges everything up to the batch;
// a consumer that crashes mid-stream re-presents its last adopted cookie
// and the missed batches are recomputed.
type Batch struct {
	Updates []Update
	Cookie  string
	// CSN is the master-position watermark the batch syncs the consumer to
	// (see PollResult.CSN).
	CSN uint64
	// Enc, when non-nil, memoizes the wire encoding of each update: a
	// batch fanned out to many sessions of one content view is BER-encoded
	// once, not once per session.
	Enc *SharedEnc
}

// SharedEnc memoizes wire encodings per update of a shared batch: the
// BER-encoded PDU body, and — for updates whose controls carry no
// per-session state — the whole message tail (op TLV + controls), so the
// per-consumer work shrinks to stamping a message ID. Safe for concurrent
// use; the zero value is ready.
type SharedEnc struct {
	mu   sync.Mutex
	enc  [][]byte
	tail [][]byte
}

// Get returns the cached PDU-body encoding of update i, building and
// caching it via build on first use. The second result reports whether
// build ran (i.e. this call paid for the encoding).
func (s *SharedEnc) Get(i int, build func() ([]byte, error)) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return memo(&s.enc, i, build)
}

// GetTail is Get for the message-ID-independent tail of update i. Callers
// must only share tails for updates whose controls are identical across
// consumers (in particular: no per-session cookie).
func (s *SharedEnc) GetTail(i int, build func() ([]byte, error)) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return memo(&s.tail, i, build)
}

// memo resolves index i in *m, building on first use. The caller holds the
// SharedEnc lock, so build must not call back into Get/GetTail.
func memo(m *[][]byte, i int, build func() ([]byte, error)) ([]byte, bool, error) {
	if i < len(*m) && (*m)[i] != nil {
		return (*m)[i], false, nil
	}
	b, err := build()
	if err != nil {
		return nil, true, err
	}
	if i >= len(*m) {
		*m = append(*m, make([][]byte, i+1-len(*m))...)
	}
	(*m)[i] = b
	return b, true, nil
}

// Subscription is a persist-mode synchronization: after the initial content
// (or the updates since the resumed cookie) is delivered, subsequent content
// changes are pushed on Updates until Close is called — the protocol's
// "persist" mode, equivalent to a persistent search held open per filter.
type Subscription struct {
	// Updates delivers batches of net updates. The channel is closed when
	// the subscription ends — including when the master's journal history
	// no longer covers the stream position (the consumer must fall back to
	// a poll, which will carry the full reload) and when the slow-consumer
	// policy demotes a lagging stream back to poll mode.
	Updates <-chan Batch

	closeOnce sync.Once
	detach    func()
}

// Close ends the subscription. On return the stream no longer advances the
// session; it stays registered and resumable by cookie.
func (s *Subscription) Close() {
	s.closeOnce.Do(s.detach)
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
// Grouped sessions are served by their group's broadcaster — one update
// cycle per commit for the whole group — behind a bounded per-subscriber
// queue with the slow-consumer policy described in group.go. Ungrouped
// sessions keep a dedicated streaming goroutine.
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
	if sess.group != nil {
		return sess.group.attach(sess), nil
	}
	return e.persistSolo(sess), nil
}

// persistSolo streams one ungrouped session from a dedicated goroutine.
func (e *Engine) persistSolo(sess *session) *Subscription {
	ch := make(chan Batch, 1)
	stop := make(chan struct{})
	done := make(chan struct{})
	sub := &Subscription{
		Updates: ch,
		detach: func() {
			close(stop)
			<-done
		},
	}
	go func() {
		defer close(done)
		defer close(ch)
		for {
			// Arm the signal before polling so commits between poll and wait
			// are not missed.
			sig := e.store.ChangeSignal()
			sess.mu.Lock()
			if sess.ended {
				sess.mu.Unlock()
				return
			}
			res, err := e.poll(sess)
			sess.mu.Unlock()
			if err != nil {
				return
			}
			if res.FullReload {
				// The journal no longer covers the stream position; a push
				// stream cannot convey a reload. End the stream — the
				// consumer's fallback poll re-delivers the content.
				return
			}
			if len(res.Updates) > 0 {
				select {
				case ch <- Batch{Updates: res.Updates, Cookie: res.Cookie, CSN: res.CSN}:
				case <-stop:
					return
				}
			}
			select {
			case <-sig:
			case <-stop:
				return
			}
		}
	}()
	return sub
}
