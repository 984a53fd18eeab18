// Package supervisor owns the replica side of the ReSync lifecycle end to
// end, so replication survives real-world failure instead of degenerating
// into the full-reload baseline the paper argues against (Section 5: the
// cookie exists precisely so a disconnected replica resumes with a poll).
//
// The supervision loop is a small state machine:
//
//	connect → begin|resume → stream|poll → backoff → connect → …
//
// A transport failure anywhere closes the connection and re-enters connect
// after a capped, jittered exponential backoff; the session cookie is kept
// and the next exchange is a resume-poll, not a reload. A stale-session
// response (the typed e-syncRefreshRequired wire error) instead clears the
// cookie and content and re-Begins. In persist mode a dead stream falls
// back to polling and the stream is re-established on the next cycle.
//
// With a state directory configured, every landed exchange is committed to
// an internal/persist journal (state.go), so a rebooted replica replays its
// content locally and resumes the master session via poll: the restart costs
// one resume exchange, not a full content transfer.
package supervisor

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/ldapnet"
	"filterdir/internal/metrics"
	"filterdir/internal/persist"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
)

// State is the supervisor's position in its lifecycle state machine.
type State int32

// Supervisor states; see the package comment for the transitions.
const (
	StateIdle State = iota
	StateConnecting
	StateSyncing // begin or resume exchange in flight
	StatePolling
	StateStreaming
	StateBackoff
	StateStopped
)

func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateConnecting:
		return "connecting"
	case StateSyncing:
		return "syncing"
	case StatePolling:
		return "polling"
	case StateStreaming:
		return "streaming"
	case StateBackoff:
		return "backoff"
	case StateStopped:
		return "stopped"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Mode selects the steady-state synchronization style.
type Mode int

const (
	// ModePoll re-polls the session on every PollInterval tick.
	ModePoll Mode = iota
	// ModePersist holds a persist-mode stream open and falls back to
	// polling (then re-establishes the stream) whenever it dies.
	ModePersist
)

// Config parameterizes a Supervisor. Master and Spec are required;
// everything else has serviceable defaults.
type Config struct {
	// Master is the upstream server's address. In a cascaded topology this
	// may be a mid-tier replica serving ReSync rather than the root master.
	Master string
	// Fallback is the root master's address for cascaded topologies. When
	// the configured upstream rejects the spec as not contained (wire
	// referral → ldapnet.ErrNotContained) or answers with a stale-session
	// error, the supervisor diverts to the fallback and re-Begins there;
	// after RetryUpstreamAfter it probes the preferred upstream again.
	// Empty disables diversion (any upstream error is handled in place).
	Fallback string
	// RetryUpstreamAfter is how long a diverted supervisor stays on the
	// fallback before probing the preferred upstream again (default 1m).
	// Each armed probe is jittered to ±20% of this so a mass divert (a
	// tier restart rejecting every leaf at once) does not re-probe the
	// tier in lockstep.
	RetryUpstreamAfter time.Duration
	// WatchFilters arms the notification-driven re-probe: while diverted
	// to the fallback, a dedicated watch connection long-polls the
	// preferred upstream for an admission-filter change (the
	// OIDFiltersWatch control) and fires the probe the moment the tier
	// widens, instead of waiting out RetryUpstreamAfter. The jittered
	// timer stays armed as a backstop for upstreams that do not support
	// the control.
	WatchFilters bool
	// OnApplied, when non-nil, is called after each exchange's updates have
	// been applied to the replica (with the update count), before the
	// checkpoint. A cascade tier uses it to stamp apply time for its
	// apply→rebroadcast latency metric. Called from the supervision loop;
	// it must not block.
	OnApplied func(n int)
	// OnWatermark, when non-nil, receives the upstream commit watermark
	// (resync PollResult.CSN) after each exchange whose updates have been
	// applied — the local content now reflects the upstream journal up to
	// that position. An edge-write Writer retires pending ops against it; a
	// cascade tier records (local CSN, upstream watermark) pairs for its
	// downstream consumers. Watermarks may regress after a fallback to a
	// lagging upstream; consumers must tolerate that. Called from the
	// supervision loop; it must not block.
	OnWatermark func(csn uint64)
	// Spec is the replicated content specification.
	Spec query.Query
	// Mode selects polling or persist-stream steady state.
	Mode Mode
	// StateDir durably journals content and cookie when non-empty.
	StateDir string
	// JournalRetention, when any bound is set, replaces the rule by which
	// that journal is folded into a snapshot of the content
	// (persist.Journal.Due).
	JournalRetention persist.JournalRetention
	// PollInterval is the steady-state poll cadence (default 1s).
	PollInterval time.Duration
	// IdleTimeout bounds the gap between persist-stream messages
	// (0 = none): a master stalled longer counts as a dead stream.
	IdleTimeout time.Duration
	// BackoffBase/BackoffMax bound the capped exponential reconnect
	// backoff (defaults 50ms / 5s). Each wait is jittered to
	// [d/2, d) so restarting replicas do not reconnect in lockstep.
	BackoffBase, BackoffMax time.Duration
	// DialTimeout bounds dials and per-message I/O (default
	// ldapnet.DefaultTimeout).
	DialTimeout time.Duration
	// Seed makes the backoff jitter deterministic: it seeds the
	// supervisor's single random source exactly once, in New, so a chaos
	// replay with the same seed sees the same backoff schedule.
	Seed int64
	// Dial is the transport hook (nil = TCP); the chaos layer wraps it.
	Dial ldapnet.DialFunc
	// Logf receives progress lines (nil discards them).
	Logf func(format string, args ...any)
}

// Persist-stream demotion policy. demoteAfter is the number of consecutive
// fast persist-stream deaths (the master's slow-consumer policy closing the
// stream right after it is built) after which the supervisor stops
// rebuilding the stream and polls instead, for demoteCooldownPolls poll
// intervals, before trying the stream again.
const (
	demoteAfter         = 3
	demoteCooldownPolls = 10
)

func (c *Config) fillDefaults() {
	if c.PollInterval <= 0 {
		c.PollInterval = time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = ldapnet.DefaultTimeout
	}
	if c.RetryUpstreamAfter <= 0 {
		c.RetryUpstreamAfter = time.Minute
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Supervisor drives one replicated content spec against one master.
type Supervisor struct {
	cfg      config
	rep      *replica.FilterReplica
	counters *metrics.ReplicaCounters
	// rng drives the backoff jitter. It is seeded exactly once (in New,
	// from cfg.Seed) and consumed only by the run goroutine; reseeding it
	// per retry would make every jitter draw the source's first value and
	// break deterministic chaos replays.
	rng *rand.Rand
	// probeRng jitters the upstream re-probe deadline. It is a separate
	// seeded source so arming probes does not perturb the backoff
	// schedule above (chaos replays depend on its draw order).
	probeRng *rand.Rand

	// Persist-stream demotion tracking; run goroutine only.
	fastDeaths   int       // consecutive streams that died young
	demotedUntil time.Time // poll-only until this instant

	// Durable state (state.go); run goroutine only once started.
	journal      *persist.Journal // nil without a StateDir
	contentReset bool             // resetContent ran since the last commit
	journalGap   bool             // a commit failed: only a snapshot makes the state whole

	// probeDeadline (UnixNano, 0 = disarmed) is set when the loop diverts
	// to the fallback; the steady-state loops return errProbeDue once it
	// passes, so a healthy fallback session still yields to re-prefer the
	// configured Master.
	probeDeadline atomic.Int64

	// Filters-watch state (run goroutine arms/disarms; the watcher
	// goroutine clears itself on exit).
	watchMu   sync.Mutex
	watchStop chan struct{}   // non-nil while a watcher is running
	watchConn *ldapnet.Client // in-flight watch connection, closed to cancel
	watchWG   sync.WaitGroup

	mu        sync.Mutex
	cookie    string
	resumeTok proto.ResumeToken // in-flight chunked reload position (zero outside one)
	target    string            // current upstream address (Master, or Fallback when diverted)
	state     State
	exchanges int64 // successful synchronization exchanges applied

	synced    chan struct{} // closed after the first successful exchange
	syncOnce  sync.Once
	stop      chan struct{}
	stopOnce  sync.Once
	done      chan struct{}
	startOnce sync.Once
}

// config is Config after default-filling plus derived values.
type config struct {
	Config
	specKey string
}

// New creates a supervisor applying the spec's content into rep. With a
// state directory configured, durable state from a previous incarnation is
// restored immediately: the content is replayed into rep and the committed
// position armed, so the first exchange after Start is a resume-poll.
func New(cfg Config, rep *replica.FilterReplica) (*Supervisor, error) {
	cfg.fillDefaults()
	s := &Supervisor{
		cfg:      config{Config: cfg, specKey: cfg.Spec.Normalize().Key()},
		rep:      rep,
		counters: &metrics.ReplicaCounters{},
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		probeRng: rand.New(rand.NewSource(cfg.Seed ^ 0x70726f6265)), // distinct stream per seed
		synced:   make(chan struct{}),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.target = cfg.Master
	if cfg.StateDir != "" {
		if err := s.restore(); err != nil {
			return nil, fmt.Errorf("restore replica state: %w", err)
		}
	}
	return s, nil
}

// Target reports the upstream address currently synchronized against: the
// configured Master, or the Fallback while diverted.
func (s *Supervisor) Target() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.target
}

// canFallback reports whether a divert to the fallback is possible and
// would change anything.
func (s *Supervisor) canFallback() bool {
	return s.cfg.Fallback != "" && s.Target() != s.cfg.Fallback
}

// switchTo repoints the supervision loop at addr and clears the session
// cookie and any resume token (both are per-server); the content itself is
// kept and replaced wholesale by the Begin at the new upstream, so the
// replica keeps serving its last-known-good content across the switch.
func (s *Supervisor) switchTo(addr string) {
	s.mu.Lock()
	s.target = addr
	s.cookie = ""
	s.resumeTok = proto.ResumeToken{}
	s.mu.Unlock()
}

// releaseSession best-effort ends the current session at the current
// target before the loop switches servers, so a fallback master does not
// accumulate abandoned sessions from leaves that migrated back upstream.
// Failure costs the old server a session: the switch proceeds, and nothing
// server-side expires a session, so it stays until that server restarts.
func (s *Supervisor) releaseSession() {
	cookie := s.Cookie()
	if cookie == "" {
		return
	}
	target := s.Target()
	client, err := ldapnet.DialWith(s.cfg.Dial, target, s.cfg.DialTimeout)
	if err != nil {
		return
	}
	defer client.Close()
	if err := client.End(cookie); err != nil {
		s.cfg.Logf("supervisor: end session at %s: %v", target, err)
	}
}

// divert moves the loop to the fallback master after the preferred
// upstream proved unusable.
func (s *Supervisor) divert(reason string) {
	s.counters.UpstreamFallbacks.Add(1)
	s.cfg.Logf("supervisor: diverting to fallback %s: %s", s.cfg.Fallback, reason)
	s.switchTo(s.cfg.Fallback)
}

// armProbe schedules the next upstream probe, jittered to ±20% of
// RetryUpstreamAfter (probeJitter): after a mass divert every leaf arms at
// the same instant, and without jitter they would all re-probe — and, on
// failure, re-divert and re-arm — in lockstep forever. With the watch
// enabled it also (re)starts the filters-watch connection so a tier-side
// change fires the probe early. disarmProbe cancels both (the loop is back
// on the preferred upstream). Both run on the supervision goroutine.
func (s *Supervisor) armProbe() {
	s.probeDeadline.Store(time.Now().Add(probeJitter(s.probeRng, s.cfg.RetryUpstreamAfter)).UnixNano())
	if s.cfg.WatchFilters {
		s.startWatch()
	}
}
func (s *Supervisor) disarmProbe() {
	s.probeDeadline.Store(0)
	s.stopWatch()
}

// probeJitter draws a duration uniformly from [0.8d, 1.2d].
func probeJitter(rng *rand.Rand, d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	spread := int64(2 * d / 5) // 40% of d
	return d - d/5 + time.Duration(rng.Int63n(spread+1))
}

// probeDue reports whether a scheduled upstream probe has come due.
func (s *Supervisor) probeDue() bool {
	d := s.probeDeadline.Load()
	return d != 0 && time.Now().UnixNano() >= d
}

// ProbeNow pulls an armed probe deadline forward to the present: the
// steady-state loop yields its fallback session at the next tick and the
// outer loop re-probes the preferred upstream immediately. A no-op when no
// probe is armed (not diverted) or the deadline already passed. Safe from
// any goroutine — the filters-watch path calls it when the upstream
// announces a filter-set change.
func (s *Supervisor) ProbeNow() {
	now := time.Now().UnixNano()
	for {
		d := s.probeDeadline.Load()
		if d == 0 || d <= now {
			return
		}
		if s.probeDeadline.CompareAndSwap(d, now) {
			return
		}
	}
}

// startWatch launches the filters-watch goroutine if none is running: it
// dials the preferred upstream and long-polls for an admission-filter
// change, firing ProbeNow when one arrives. One watch per divert episode —
// the goroutine exits after a successful notification (the probe either
// re-attaches, or re-diverts and re-arms a fresh watch).
func (s *Supervisor) startWatch() {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	if s.watchStop != nil {
		return
	}
	stop := make(chan struct{})
	s.watchStop = stop
	s.watchWG.Add(1)
	go s.watchLoop(stop)
}

// stopWatch cancels a running watch, unblocking its in-flight read.
func (s *Supervisor) stopWatch() {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	if s.watchStop == nil {
		return
	}
	close(s.watchStop)
	s.watchStop = nil
	if s.watchConn != nil {
		_ = s.watchConn.Close()
		s.watchConn = nil
	}
}

// watchLoop is the filters-watch goroutine: dial the preferred upstream,
// subscribe to its filter generation, and on a change fire the probe. Dial
// or subscribe failures (upstream down, control unsupported) back off for a
// poll interval and retry; the jittered timer remains the backstop either
// way.
func (s *Supervisor) watchLoop(stop chan struct{}) {
	defer s.watchWG.Done()
	defer func() {
		s.watchMu.Lock()
		if s.watchStop == stop {
			s.watchStop = nil
		}
		s.watchConn = nil
		s.watchMu.Unlock()
	}()
	for {
		select {
		case <-stop:
			return
		case <-s.stop:
			return
		default:
		}
		client, err := ldapnet.DialWith(s.cfg.Dial, s.cfg.Master, s.cfg.DialTimeout)
		if err == nil {
			s.watchMu.Lock()
			select {
			case <-stop:
				// stopWatch ran during the dial and found no connection to
				// close; parking on this one would never be interrupted.
				s.watchMu.Unlock()
				_ = client.Close()
				return
			default:
			}
			s.watchConn = client
			s.watchMu.Unlock()
			gen, werr := client.WatchFilters(s.cfg.Spec, 0)
			s.watchMu.Lock()
			s.watchConn = nil
			s.watchMu.Unlock()
			_ = client.Close()
			if werr == nil {
				s.cfg.Logf("supervisor: upstream %s filters changed (gen %d), probing now", s.cfg.Master, gen)
				s.ProbeNow()
				return
			}
			err = werr
		}
		s.cfg.Logf("supervisor: filters watch at %s: %v", s.cfg.Master, err)
		select {
		case <-stop:
			return
		case <-s.stop:
			return
		case <-time.After(s.cfg.PollInterval):
		}
	}
}

// errProbeDue unwinds a healthy fallback session so the outer loop can
// probe the preferred upstream again.
var errProbeDue = errors.New("upstream probe due")

// Counters exposes the supervision counters for status reporting.
func (s *Supervisor) Counters() *metrics.ReplicaCounters { return s.counters }

// Spec returns the replicated content spec the supervisor was configured with.
func (s *Supervisor) Spec() query.Query { return s.cfg.Spec }

// State reports the current lifecycle state.
func (s *Supervisor) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Cookie returns the current session cookie ("" before the first Begin).
func (s *Supervisor) Cookie() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cookie
}

// Synced is closed after the first successful synchronization exchange.
func (s *Supervisor) Synced() <-chan struct{} { return s.synced }

// Exchanges reports the number of synchronization exchanges (begin, poll,
// or stream batch) whose updates have been fully applied to the replica — a
// test-visible convergence probe: an Exchanges() advance after the master
// quiesced means a whole exchange completed against the settled content.
func (s *Supervisor) Exchanges() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exchanges
}

// noteExchange records one fully applied exchange for the probes.
func (s *Supervisor) noteExchange() {
	s.mu.Lock()
	s.exchanges++
	s.mu.Unlock()
}

// Start launches the supervision loop (idempotent).
func (s *Supervisor) Start() {
	s.startOnce.Do(func() { go s.run() })
}

// Stop terminates the loop and waits for it to exit. Nothing is written:
// every landed exchange is committed already, so a later incarnation resumes
// from the exact stop point.
func (s *Supervisor) Stop() error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.Start() // never started: the loop exits at once, closing the journal
	<-s.done
	// The run goroutine has exited, so no new watch can start; cancel any
	// in-flight one (closing its connection unblocks a deadline-free read)
	// and wait it out.
	s.stopWatch()
	s.watchWG.Wait()
	s.setState(StateStopped)
	return nil
}

func (s *Supervisor) setState(st State) {
	s.mu.Lock()
	s.state = st
	s.mu.Unlock()
}

func (s *Supervisor) setCookie(c string) {
	s.mu.Lock()
	s.cookie = c
	s.mu.Unlock()
}

// ResumeToken returns the in-flight chunked-reload token (zero outside a
// transfer).
func (s *Supervisor) ResumeToken() proto.ResumeToken {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resumeTok
}

func (s *Supervisor) setResumeToken(tok proto.ResumeToken) {
	s.mu.Lock()
	s.resumeTok = tok
	s.mu.Unlock()
}

// clearSession drops the session cookie and resume token while keeping the
// replicated content in service — a stale session is re-Begun, and the
// Begin's reload replaces the content wholesale only once it arrives.
func (s *Supervisor) clearSession() {
	s.mu.Lock()
	s.cookie = ""
	s.resumeTok = proto.ResumeToken{}
	s.mu.Unlock()
}

func (s *Supervisor) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// run is the outer supervision loop: each cycle dials, synchronizes until
// an error, classifies the error and backs off. With a fallback configured,
// a containment rejection or stale session at the preferred upstream
// diverts the loop to the fallback master; after RetryUpstreamAfter it
// probes the upstream again and sticks with whichever side completes an
// exchange first.
func (s *Supervisor) run() {
	defer close(s.done)
	if s.journal != nil {
		defer s.journal.Close() // every commit is fsynced: nothing left to fail
	}
	attempt := 0
	var (
		divertedAt time.Time // when the loop last moved to the fallback
		probing    bool      // currently trying the preferred upstream again
		probeStart int64     // Exchanges() when the probe began
	)
	if s.cfg.Fallback != "" && s.Target() == s.cfg.Fallback && s.cfg.Fallback != s.cfg.Master {
		divertedAt = time.Now() // restored onto the fallback: start the timer
		s.armProbe()
	}
	for !s.stopped() {
		if !probing && !divertedAt.IsZero() && s.Target() == s.cfg.Fallback &&
			s.cfg.Fallback != s.cfg.Master &&
			s.probeDue() {
			s.cfg.Logf("supervisor: probing preferred upstream %s", s.cfg.Master)
			s.releaseSession()
			s.switchTo(s.cfg.Master)
			s.disarmProbe()
			probing, probeStart = true, s.Exchanges()
		}
		target := s.Target()
		s.setState(StateConnecting)
		s.counters.Dials.Add(1)
		client, err := ldapnet.DialWith(s.cfg.Dial, target, s.cfg.DialTimeout)
		if err != nil {
			s.cfg.Logf("supervisor: dial %s: %v", target, err)
			if probing {
				// Upstream still unreachable: go straight back to the
				// fallback instead of backing off against a dead server.
				s.divert("upstream probe dial failed: " + err.Error())
				divertedAt, probing = time.Now(), false
				s.armProbe()
				attempt = 0
				continue
			}
			s.backoff(&attempt)
			continue
		}
		err = s.syncLoop(client, &attempt)
		_ = client.Close()
		if s.stopped() {
			return
		}
		if probing {
			if s.Exchanges() > probeStart {
				// The upstream completed at least one exchange: the probe
				// succeeded, stay here and forget the diversion.
				probing, divertedAt = false, time.Time{}
				s.disarmProbe()
			} else if err != nil {
				// The probe died before a single exchange (rejection,
				// stale session, transport): divert back immediately.
				s.divert("upstream probe failed: " + err.Error())
				divertedAt, probing = time.Now(), false
				s.armProbe()
				attempt = 0
				continue
			}
		}
		switch {
		case errors.Is(err, errProbeDue):
			// The fallback session yielded for a scheduled probe; the next
			// iteration's deadline check performs the switch.
			attempt = 0
		case errors.Is(err, ldapnet.ErrNotContained) && s.canFallback():
			// The upstream replica cannot prove containment for our spec:
			// it will never serve this session, so take it to the master.
			s.divert("spec not contained at upstream: " + err.Error())
			divertedAt = time.Now()
			s.armProbe()
			attempt = 0
		case errors.Is(err, resync.ErrNoSuchSession) && s.canFallback():
			// A mid-tier that lost our session likely restarted empty or
			// trimmed past us; the fallback master can always serve us.
			s.counters.StaleSessions.Add(1)
			s.divert("stale session at upstream: " + err.Error())
			divertedAt = time.Now()
			s.armProbe()
			attempt = 0
		case errors.Is(err, resync.ErrNoSuchSession):
			// The master no longer knows our cookie (restart, expiry,
			// explicit end): drop the session but keep serving the
			// last-known-good content — the fresh Begin's reload replaces
			// it wholesale only when it actually arrives. (An earlier
			// version emptied the replica here, leaving it serving nothing
			// for the whole reconnect window.)
			s.counters.StaleSessions.Add(1)
			s.cfg.Logf("supervisor: session stale, re-beginning: %v", err)
			s.clearSession()
			attempt = 0
		case errors.Is(err, dit.ErrPatchMiss):
			// The upstream sent a patch for an entry this replica does not
			// hold: its record of our content and the content disagree (a
			// redelivery from an older cookie across a move-out, a store fed
			// by several links), and a patch cannot rebuild the entry. Give
			// the session up and Begin anew; as with a stale session the held
			// content stays in service until the reload replaces it.
			s.counters.PatchMisses.Add(1)
			s.cfg.Logf("supervisor: %v, re-beginning", err)
			s.releaseSession()
			s.clearSession()
			attempt = 0
		case errors.Is(err, ldapnet.ErrNotContained):
			// No fallback to divert to: keep retrying with backoff in case
			// the upstream's stored queries grow to cover us.
			s.cfg.Logf("supervisor: spec rejected by upstream (no fallback): %v", err)
			s.backoff(&attempt)
		case err != nil:
			s.counters.Reconnects.Add(1)
			s.cfg.Logf("supervisor: connection lost: %v", err)
			s.backoff(&attempt)
		}
	}
}

// syncLoop performs the begin-or-resume exchange and then the steady-state
// mode on one connection, returning the error that ended it. A held resume
// token takes precedence: the reconnect continues the interrupted chunked
// reload where it left off instead of re-Beginning from scratch.
func (s *Supervisor) syncLoop(client *ldapnet.Client, attempt *int) error {
	s.setState(StateSyncing)
	cookie := s.Cookie()
	tok := s.ResumeToken()
	var res *resync.PollResult
	var err error
	switch {
	case !tok.IsZero():
		res, err = client.SyncResume(tok)
		if err != nil {
			if !ldapnet.IsTransient(err) && !errors.Is(err, resync.ErrNoSuchSession) {
				// The supplier categorically refused the token (e.g. it does
				// not speak resumption); drop it so the next cycle Begins.
				s.setResumeToken(proto.ResumeToken{})
			}
			return err
		}
		s.counters.Resumes.Add(1)
	case cookie == "":
		res, err = client.Sync(s.cfg.Spec, proto.ReSyncModePoll, "")
		if err != nil {
			return err
		}
		s.counters.Begins.Add(1)
		if res.Resume == nil {
			s.resetContent()
		}
	default:
		res, err = client.Sync(s.cfg.Spec, proto.ReSyncModePoll, cookie)
		if err != nil {
			return err
		}
		s.counters.Resumes.Add(1)
		s.counters.Polls.Add(1)
	}
	*attempt = 0
	if err := s.applyExchange(client, res); err != nil {
		return err
	}
	s.syncOnce.Do(func() { close(s.synced) })

	if s.cfg.Mode == ModePersist {
		if wait := time.Until(s.demotedUntil); wait > 0 {
			// Recently demoted by the master's slow-consumer policy:
			// sit out the cooldown in poll mode, then let the outer
			// loop rebuild the stream.
			cooldown := time.NewTimer(wait)
			defer cooldown.Stop()
			return s.pollSteadyState(client, cooldown.C)
		}
		return s.streamSteadyState(client)
	}
	return s.pollSteadyState(client, nil)
}

// pollOnce runs one poll exchange of the current session and applies it.
func (s *Supervisor) pollOnce(client *ldapnet.Client) error {
	res, err := client.Sync(s.cfg.Spec, proto.ReSyncModePoll, s.Cookie())
	if err != nil {
		return err
	}
	s.counters.Polls.Add(1)
	return s.applyExchange(client, res)
}

// pollSteadyState re-polls the session on every tick until stop or error.
// A non-nil until ends it cleanly when it fires, so a demoted persist
// supervisor re-attempts its stream after the cooldown.
func (s *Supervisor) pollSteadyState(client *ldapnet.Client, until <-chan time.Time) error {
	s.setState(StatePolling)
	ticker := time.NewTicker(s.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return nil
		case <-until:
			return nil
		case <-ticker.C:
			if s.probeDue() {
				return errProbeDue
			}
			if err := s.pollOnce(client); err != nil {
				return err
			}
		}
	}
}

// streamSteadyState holds a persist stream open on a dedicated connection,
// applying pushed batches. When the stream dies it falls back to one
// resume-poll on the primary connection (so nothing pushed-but-lost is
// missed) and returns, letting the outer loop re-establish the stream.
func (s *Supervisor) streamSteadyState(client *ldapnet.Client) error {
	s.setState(StateStreaming)
	ps, err := ldapnet.PersistWith(s.cfg.Dial, s.Target(), s.cfg.Spec,
		s.Cookie(), s.cfg.DialTimeout, s.cfg.IdleTimeout)
	if err != nil {
		return err
	}
	defer ps.Close()
	started := time.Now()
	probeTick := time.NewTicker(s.cfg.PollInterval)
	defer probeTick.Stop()
	var batch []resync.Update
	var batchCookie string
	var batchCSN uint64
	take := func(u ldapnet.StreamUpdate) {
		batch = append(batch, u.Update)
		if u.Cookie != "" {
			batchCookie = u.Cookie
			batchCSN = u.CSN
		}
	}
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := s.land(&resync.PollResult{Updates: batch, Cookie: batchCookie, CSN: batchCSN})
		s.counters.StreamBatches.Add(1)
		batch, batchCookie, batchCSN = batch[:0], "", 0
		return err
	}
	for {
		select {
		case <-s.stop:
			return flush()
		case <-probeTick.C:
			if s.probeDue() {
				if err := flush(); err != nil {
					return err
				}
				return errProbeDue
			}
		case u, ok := <-ps.Updates:
			if !ok {
				if err := flush(); err != nil {
					return err
				}
				if serr := ps.Err(); errors.Is(serr, resync.ErrNoSuchSession) {
					return serr
				}
				// Stream died: catch up with one resume-poll before the
				// outer loop rebuilds the stream. A stream that keeps
				// dying young — the signature of the master's
				// slow-consumer demotion — earns a poll-mode cooldown
				// instead of rebuild churn.
				s.counters.Fallbacks.Add(1)
				if time.Since(started) < s.cfg.PollInterval {
					s.fastDeaths++
					if s.fastDeaths >= demoteAfter {
						s.fastDeaths = 0
						cooldown := demoteCooldownPolls * s.cfg.PollInterval
						s.demotedUntil = time.Now().Add(cooldown)
						s.counters.Demotions.Add(1)
						s.cfg.Logf("supervisor: persist stream demoted, polling for %s", cooldown)
					}
				} else {
					s.fastDeaths = 0
				}
				s.setState(StatePolling)
				if err := s.pollOnce(client); err != nil {
					return err
				}
				return errStreamLost
			}
			take(u)
			// Drain whatever else is already buffered, then apply as one
			// batch so checkpoints amortize across a burst.
			for len(ps.Updates) > 0 {
				if u, ok := <-ps.Updates; ok {
					take(u)
				}
			}
			if err := flush(); err != nil {
				return err
			}
		}
	}
}

// errStreamLost re-enters the outer loop (reconnect + resume) after a
// persist stream died and the fallback poll succeeded.
var errStreamLost = errors.New("persist stream lost")

// applyExchange lands one exchange's result, following a chunked reload
// through its remaining exchanges on the same connection: each chunk is
// landed (applied and committed with its successor token) before the
// next is requested, so a kill at any point resumes at the furthest applied
// chunk.
func (s *Supervisor) applyExchange(client *ldapnet.Client, res *resync.PollResult) error {
	for {
		if err := s.land(res); err != nil {
			return err
		}
		if res.Resume == nil {
			return nil
		}
		next, err := client.SyncResume(*res.Resume)
		if err != nil {
			return err
		}
		s.counters.ChunkResumes.Add(1)
		res = next
	}
}

// land is the one way an exchange reaches the replica, whether it came from
// a poll, a chunk of a resumable reload or a batch off a persist stream. The
// position the exchange reaches — its resume token, or on a final exchange
// its cookie — is adopted strictly after its updates are applied, so a failed
// apply leaves the supervisor presenting the position it really holds, and
// is committed with those updates as one journal batch, so the durable
// position and the durable content are never apart (state.go).
func (s *Supervisor) land(res *resync.PollResult) error {
	if res.FullReload {
		// A monolithic reload or chunk zero of a chunked one: the transfer
		// replaces the held content from scratch.
		s.counters.FullReloads.Add(1)
		s.resetContent()
	}
	if len(res.Updates) > 0 {
		if err := s.rep.ApplySync(s.cfg.Spec, res.Updates); err != nil {
			return fmt.Errorf("apply updates: %w", err)
		}
		s.counters.UpdatesApplied.Add(int64(len(res.Updates)))
	}
	cookie, tok := s.Cookie(), proto.ResumeToken{}
	if res.Resume != nil {
		tok = *res.Resume
	} else if res.Cookie != "" {
		// Final exchange: the completion cookie supersedes the token.
		cookie = res.Cookie
	}
	moved := res.FullReload || len(res.Updates) > 0 || cookie != s.Cookie() || tok != s.ResumeToken()
	s.setCookie(cookie)
	s.setResumeToken(tok)
	if moved {
		if s.cfg.OnApplied != nil {
			s.cfg.OnApplied(len(res.Updates))
		}
		if err := s.commit(res.Updates); err != nil {
			return fmt.Errorf("commit state: %w", err)
		}
	}
	if res.Resume == nil {
		s.noteExchange()
		s.noteWatermark(res.CSN)
	}
	return nil
}

// noteWatermark reports an applied exchange's upstream commit position to
// the OnWatermark hook (zero means the supplier did not stamp one).
func (s *Supervisor) noteWatermark(csn uint64) {
	if s.cfg.OnWatermark != nil && csn > 0 {
		s.cfg.OnWatermark(csn)
	}
}

// resetContent drops the spec's replicated content and the sync point that
// described it (Begin, full reload); land adopts the new one.
func (s *Supervisor) resetContent() {
	s.rep.RemoveStored(s.cfg.Spec)
	s.rep.AddStored(s.cfg.Spec, "")
	s.setCookie("")
	s.contentReset = true
}

// backoff sleeps the capped, jittered exponential delay for the attempt
// counter, abandoning the wait on stop.
func (s *Supervisor) backoff(attempt *int) {
	s.setState(StateBackoff)
	d := nextBackoff(s.rng, s.cfg.BackoffBase, s.cfg.BackoffMax, attempt)
	start := time.Now()
	select {
	case <-time.After(d):
	case <-s.stop:
	}
	s.counters.ObserveBackoff(time.Since(start))
}

// nextBackoff computes one capped exponential backoff delay, jittered to
// [d/2, d), and advances the attempt counter while below the cap. rng must
// be the supervisor's single source, seeded once at construction: drawing
// jitter from a source reseeded per retry would replay the seed's first
// value forever and make "jittered" replicas reconnect in lockstep — and
// would desynchronize deterministic chaos replays, which assume the nth
// backoff consumes the nth draw.
func nextBackoff(rng *rand.Rand, base, max time.Duration, attempt *int) time.Duration {
	d := base << *attempt
	if d > max || d <= 0 {
		d = max
	} else {
		*attempt++
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}
