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
// cookie and content and re-Begins. In persist mode the stream is the
// exchange connection held open after its poll: when it ends the loop
// reconnects, resumes by poll and asks for the stream again.
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

var stateNames = [...]string{
	StateIdle: "idle", StateConnecting: "connecting", StateSyncing: "syncing", StatePolling: "polling",
	StateStreaming: "streaming", StateBackoff: "backoff", StateStopped: "stopped",
}

func (s State) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Mode selects the steady-state synchronization style.
type Mode int

const (
	// ModePoll re-polls the session on every PollInterval tick.
	ModePoll Mode = iota
	// ModePersist holds a persist-mode stream open after each poll, and
	// reconnects and resumes by cookie whenever it ends.
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
	// referral → ldapnet.ErrNotContained), refuses to supply any sync
	// (unwillingToPerform → ldapnet.ErrReadOnly: a replica run without a
	// tier) or answers with a stale-session error, the supervisor diverts to
	// the fallback and re-Begins there.
	// While diverted it holds one filters watch (the OIDFiltersWatch
	// control) on the preferred upstream and probes it again when the
	// watch answers: when the tier can serve the spec. An upstream that
	// refuses the watch is not a tier, and the supervisor stays on the
	// fallback. Empty disables diversion (any upstream error is handled in
	// place).
	Fallback string
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

	// Durable state (state.go); run goroutine only once started.
	journal      *persist.Journal // nil without a StateDir
	contentReset bool             // resetContent ran since the last commit
	registered   bool             // the spec is in the replica's stored set: a transfer completed
	journalGap   bool             // a commit failed: only a snapshot makes the state whole

	// Filters-watch state (the run goroutine starts and stops the watch;
	// the watch goroutine clears itself on exit). probeDue is set, under
	// watchMu, only by the watch still current when its answer arrives; the
	// steady-state loops then return errProbeDue, so a healthy fallback
	// session still yields to re-prefer the configured Master.
	watchMu   sync.Mutex
	watchStop chan struct{}   // non-nil while a watch is running
	watchConn *ldapnet.Client // in-flight watch connection, closed to cancel
	watchWG   sync.WaitGroup
	probeDue  atomic.Bool

	// mu guards pos, state and exchanges. pos is where the link stands
	// (state.go) and is written, under mu, only by the run goroutine — and
	// by New before it starts — which reads it without the lock.
	mu        sync.Mutex
	pos       position
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
	specKey := cfg.Spec.Normalize().Key()
	s := &Supervisor{
		cfg:      config{Config: cfg, specKey: specKey},
		pos:      position{Addr: cfg.Master, Spec: specKey},
		rep:      rep,
		counters: &metrics.ReplicaCounters{},
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		synced:   make(chan struct{}),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
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
	return s.pos.Addr
}

// canFallback reports whether a divert to the fallback is possible and
// would change anything.
func (s *Supervisor) canFallback() bool {
	return s.cfg.Fallback != "" && s.pos.Addr != s.cfg.Fallback
}

// switchTo repoints the supervision loop at addr with no position there
// (cookies and resume tokens are per-server); the content itself is kept and
// replaced wholesale by the Begin at the new upstream, so the replica keeps
// serving its last-known-good content across the switch.
func (s *Supervisor) switchTo(addr string) {
	s.mu.Lock()
	s.pos = position{Addr: addr, Spec: s.cfg.specKey}
	s.mu.Unlock()
}

// releaseSession best-effort ends the current session at the current
// target before the loop switches servers, so a fallback master does not
// accumulate abandoned sessions from leaves that migrated back upstream.
// Failure costs the old server a session: the switch proceeds, and nothing
// server-side expires a session, so it stays until that server restarts.
func (s *Supervisor) releaseSession() {
	cookie, target := s.pos.Cookie, s.pos.Addr
	if cookie == "" {
		return
	}
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
// upstream proved unusable, and starts the watch that says when to return.
func (s *Supervisor) divert(reason string) {
	s.counters.UpstreamFallbacks.Add(1)
	s.cfg.Logf("supervisor: diverting to fallback %s: %s", s.cfg.Fallback, reason)
	s.switchTo(s.cfg.Fallback)
	s.startWatch()
}

// startWatch launches the filters-watch goroutine if none is running: it
// dials the preferred upstream and waits there until the upstream can serve
// the spec, then sets probeDue. One watch per divert episode: the goroutine
// exits once answered, and the probe either re-attaches or diverts again,
// which starts a fresh watch.
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

// stopWatch cancels a running watch, unblocking its in-flight read, and
// clears a probe it asked for.
func (s *Supervisor) stopWatch() {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	s.probeDue.Store(false)
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

// watchLoop is the filters-watch goroutine: dial the preferred upstream and
// wait there until it can serve the spec, then ask for the probe. A dial or
// transport failure (upstream down) retries after a poll interval; a refusal
// of the control means the upstream is no tier to return to, and the watch
// ends with the supervisor on its fallback.
func (s *Supervisor) watchLoop(stop chan struct{}) {
	defer s.watchWG.Done()
	defer func() {
		s.watchMu.Lock()
		if s.watchStop == stop {
			s.watchStop = nil
		}
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
			err = client.WatchFilters(s.cfg.Spec)
			_ = client.Close()
			s.watchMu.Lock()
			if s.watchConn == client { // a watch started since owns it otherwise
				s.watchConn = nil
			}
			if err == nil && s.watchStop == stop {
				s.probeDue.Store(true)
			}
			s.watchMu.Unlock()
			if err == nil {
				s.cfg.Logf("supervisor: upstream %s can serve the spec", s.cfg.Master)
				return
			}
			if errors.Is(err, ldapnet.ErrReadOnly) {
				s.cfg.Logf("supervisor: upstream %s refuses the filters watch, staying on the fallback: %v", s.cfg.Master, err)
				return
			}
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
	return s.pos.Cookie
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

// clearSession drops the session cookie and resume token while keeping the
// replicated content in service — a stale session is re-Begun, and the
// Begin's reload replaces the content wholesale only once it arrives.
func (s *Supervisor) clearSession() { s.switchTo(s.pos.Addr) }

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
// a containment rejection, a read-only refusal or a stale session at the
// preferred upstream diverts the loop to the fallback master; when the
// filters watch answers it probes the upstream again and sticks with
// whichever side completes an exchange first.
func (s *Supervisor) run() {
	defer close(s.done)
	if s.journal != nil {
		defer s.journal.Close() // every commit is fsynced: nothing left to fail
	}
	attempt := 0
	var (
		probing    bool  // currently trying the preferred upstream again
		probeStart int64 // Exchanges() when the probe began
	)
	if s.cfg.Fallback != "" && s.pos.Addr == s.cfg.Fallback && s.cfg.Fallback != s.cfg.Master {
		s.startWatch() // restored onto the fallback: watch for the way back
	}
	for !s.stopped() {
		if s.probeDue.Load() {
			s.cfg.Logf("supervisor: probing preferred upstream %s", s.cfg.Master)
			s.stopWatch()
			s.releaseSession()
			s.switchTo(s.cfg.Master)
			probing, probeStart = true, s.Exchanges()
		}
		target := s.pos.Addr
		s.setState(StateConnecting)
		s.counters.Dials.Add(1)
		client, err := ldapnet.DialWith(s.cfg.Dial, target, s.cfg.DialTimeout)
		if err != nil {
			s.cfg.Logf("supervisor: dial %s: %v", target, err)
			if probing {
				// Upstream still unreachable: go straight back to the
				// fallback instead of backing off against a dead server.
				s.divert("upstream probe dial failed: " + err.Error())
				probing, attempt = false, 0
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
			// An exchange at the upstream settles the probe: stay there.
			probing = false
			if s.Exchanges() == probeStart && err != nil {
				// The probe died before a single exchange (rejection,
				// stale session, transport): divert back immediately.
				s.divert("upstream probe failed: " + err.Error())
				attempt = 0
				continue
			}
		}
		switch {
		case errors.Is(err, errProbeDue):
			// The fallback session yielded for the probe the watch asked
			// for; the next iteration performs the switch.
			attempt = 0
		case errors.Is(err, ldapnet.ErrNotContained) && s.canFallback():
			// The upstream replica cannot prove containment for our spec:
			// it will never serve this session, so take it to the master.
			s.divert("spec not contained at upstream: " + err.Error())
			attempt = 0
		case errors.Is(err, ldapnet.ErrReadOnly) && s.canFallback():
			// The upstream is a replica that supplies nobody: it refuses
			// every Begin, so take the session to the master.
			s.divert("upstream supplies no sync: " + err.Error())
			attempt = 0
		case errors.Is(err, resync.ErrNoSuchSession) && s.canFallback():
			// A mid-tier that lost our session likely restarted empty or
			// trimmed past us; the fallback master can always serve us.
			s.counters.StaleSessions.Add(1)
			s.divert("stale session at upstream: " + err.Error())
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
	var res *resync.PollResult
	var err error
	switch cookie := s.pos.Cookie; {
	case s.pos.Resume != nil:
		res, err = client.SyncResume(*s.pos.Resume)
		if err != nil {
			if !ldapnet.IsTransient(err) && !errors.Is(err, resync.ErrNoSuchSession) {
				// The supplier categorically refused the token (e.g. it does
				// not speak resumption); drop it so the next cycle Begins.
				s.clearSession()
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
		return s.streamSteadyState(client)
	}
	return s.pollSteadyState(client)
}

// pollSteadyState re-polls the session on every tick until stop or error.
func (s *Supervisor) pollSteadyState(client *ldapnet.Client) error {
	s.setState(StatePolling)
	ticker := time.NewTicker(s.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return nil
		case <-ticker.C:
			if s.probeDue.Load() {
				return errProbeDue
			}
			res, err := client.Sync(s.cfg.Spec, proto.ReSyncModePoll, s.pos.Cookie)
			if err != nil {
				return err
			}
			s.counters.Polls.Add(1)
			if err := s.applyExchange(client, res); err != nil {
				return err
			}
		}
	}
}

// streamSteadyState holds the session's persist stream open on the
// connection of its exchanges, landing every batch received so far as one.
// A request the supplier cannot stream from gets the answer a poll gets,
// landed like one before the stream is asked for again. When the stream ends
// the outer loop reconnects and resumes by cookie, so nothing pushed but
// lost is missed.
func (s *Supervisor) streamSteadyState(client *ldapnet.Client) error {
	s.setState(StateStreaming)
	probeTick := time.NewTicker(s.cfg.PollInterval)
	defer probeTick.Stop()
	ps, err := client.Persist(s.cfg.Spec, s.pos.Cookie, s.cfg.IdleTimeout)
	if err != nil {
		return err
	}
	defer func() { ps.Close() }()
	for {
		select {
		case <-s.stop:
			return nil
		case <-probeTick.C:
			if s.probeDue.Load() {
				return errProbeDue
			}
		case res, ok := <-ps.Batches:
			if !ok {
				err := ps.Err()
				if errors.Is(err, resync.ErrNoSuchSession) {
					return err
				}
				s.counters.Fallbacks.Add(1)
				if err == nil {
					err = errStreamLost
				}
				return err
			}
			if res.FullReload || res.Resume != nil {
				// The stream's last result, and the client is free again.
				if err := s.applyExchange(client, res); err != nil {
					return err
				}
				again, err := client.Persist(s.cfg.Spec, s.pos.Cookie, s.cfg.IdleTimeout)
				if err != nil {
					return err
				}
				ps = again
				continue
			}
			for len(ps.Batches) > 0 {
				next := <-ps.Batches
				res.Updates = append(res.Updates, next.Updates...)
				res.Cookie, res.CSN = next.Cookie, next.CSN
			}
			s.counters.StreamBatches.Add(1)
			if err := s.land(res); err != nil {
				return err
			}
		}
	}
}

// errStreamLost re-enters the outer loop (reconnect + resume) after the
// supplier ended a persist stream.
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
	next := s.pos
	next.Resume = res.Resume
	if res.Resume != nil || res.Cookie != "" {
		// A chunk holds no cookie; a final exchange's supersedes the token.
		next.Cookie = res.Cookie
	}
	// Tokens compare by pointer and every chunk carries its own: a token
	// taken on or dropped always moves the position.
	moved := res.FullReload || len(res.Updates) > 0 || next != s.pos
	s.mu.Lock()
	s.pos = next
	s.mu.Unlock()
	if moved {
		if s.cfg.OnApplied != nil {
			s.cfg.OnApplied(len(res.Updates))
		}
		if err := s.commit(res.Updates); err != nil {
			return fmt.Errorf("commit state: %w", err)
		}
	}
	if res.Resume == nil {
		if !s.registered {
			s.rep.AddStored(s.cfg.Spec, next.Cookie)
			s.registered = true
		}
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

// resetContent drops the spec's replicated content, stored-set entry and
// position (Begin, full reload); land adopts the new ones once complete.
func (s *Supervisor) resetContent() {
	s.rep.RemoveStored(s.cfg.Spec)
	s.registered = false
	s.clearSession()
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
	s.counters.Backoff.Observe(int64(time.Since(start)))
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
