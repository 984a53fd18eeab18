package supervisor

import (
	"encoding/json"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"filterdir/internal/ldapnet"
	"filterdir/internal/persist"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
)

// gatedBackend serves the master store but answers new sync sessions with
// the containment rejection until allowed — a stand-in for a mid-tier whose
// stored queries do not (yet) cover the leaf's spec. It refuses the filters
// watch, as any backend that is not a tier does.
type gatedBackend struct {
	*ldapnet.StoreBackend
	allow   atomic.Bool
	refused atomic.Int64 // Begins answered with the rejection
}

func (b *gatedBackend) ReSyncBegin(q query.Query) (*resync.PollResult, error) {
	if !b.allow.Load() {
		b.refused.Add(1)
		return nil, ldapnet.ErrNotContained
	}
	return b.StoreBackend.ReSyncBegin(q)
}

// watchedBackend is a gated backend that answers the filters watch as a tier
// does: ready once it admits the spec, and open wakes the parked watches.
type watchedBackend struct {
	*gatedBackend
	asked   atomic.Int64 // Ready calls: watches landed or woken
	mu      sync.Mutex
	changed chan struct{}
}

func (b *watchedBackend) Ready(query.Query) (bool, <-chan struct{}) {
	b.asked.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.allow.Load(), b.changed
}

func (b *watchedBackend) Park(query.Query) func() { return func() {} }

// open starts admitting the spec and signals the watchers.
func (b *watchedBackend) open() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.allow.Store(true)
	close(b.changed)
	b.changed = make(chan struct{})
}

// serveWatched serves a watched backend over the harness store.
func serveWatched(t *testing.T, h *harness) (*watchedBackend, *ldapnet.Server) {
	t.Helper()
	wb := &watchedBackend{
		gatedBackend: &gatedBackend{StoreBackend: ldapnet.NewStoreBackend(h.store)},
		changed:      make(chan struct{}),
	}
	srv, err := ldapnet.Serve("127.0.0.1:0", wb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return wb, srv
}

// serveGated serves a gated backend over the harness store on its own
// listener (no fault injection — the rejection itself is the fault).
func serveGated(t *testing.T, h *harness) (*gatedBackend, *ldapnet.Server) {
	t.Helper()
	gb := &gatedBackend{StoreBackend: ldapnet.NewStoreBackend(h.store)}
	srv, err := ldapnet.Serve("127.0.0.1:0", gb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return gb, srv
}

// TestContainmentRejectionDiverts: the preferred upstream rejects the spec,
// so the supervisor must divert to the fallback master and converge there.
func TestContainmentRejectionDiverts(t *testing.T) {
	h := newHarness(t)
	_, gatedSrv := serveGated(t, h)

	cfg := h.config(t)
	cfg.Master = gatedSrv.Addr()
	cfg.Fallback = h.srv.Addr()
	sup := startSupervisor(t, cfg)

	waitSynced(t, sup)
	if got := sup.Target(); got != h.srv.Addr() {
		t.Errorf("target = %s, want fallback %s", got, h.srv.Addr())
	}
	if got := sup.Counters().UpstreamFallbacks.Load(); got != 1 {
		t.Errorf("upstream fallbacks = %d, want 1", got)
	}
	mutate(t, h.store, 0)
	waitConverged(t, h, sup, 10*time.Second)
}

// readOnlyBackend is a replica served without a tier, as ldapreplica runs
// without -serve: it refuses every sync and every filters watch as
// unwillingToPerform.
type readOnlyBackend struct {
	*ldapnet.ReplicaBackend
	refused atomic.Int64 // Begins refused
}

func (b *readOnlyBackend) ReSyncBegin(q query.Query) (*resync.PollResult, error) {
	b.refused.Add(1)
	return b.ReplicaBackend.ReSyncBegin(q)
}

// TestReadOnlyUpstreamDiverts: an upstream that supplies nobody is no lost
// connection to back off from. The supervisor diverts to the fallback master
// after the one refused Begin, and its filters watch, refused the same way,
// is not retried.
func TestReadOnlyUpstreamDiverts(t *testing.T) {
	h := newHarness(t)
	rep, err := replica.NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	ro := &readOnlyBackend{ReplicaBackend: ldapnet.NewReplicaBackend(rep, "ldap://"+h.srv.Addr())}
	upstream, err := ldapnet.Serve("127.0.0.1:0", ro)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = upstream.Close() })

	var upstreamDials atomic.Int64
	cfg := h.config(t)
	cfg.Master = upstream.Addr()
	cfg.Fallback = h.srv.Addr()
	cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		if addr == upstream.Addr() {
			upstreamDials.Add(1)
		}
		return net.DialTimeout("tcp", addr, timeout)
	}
	sup := startSupervisor(t, cfg)

	waitSynced(t, sup)
	if got := sup.Target(); got != h.srv.Addr() {
		t.Errorf("target = %s, want fallback %s", got, h.srv.Addr())
	}
	// The refused Begin, then the refused watch; a retry of either would
	// come within a few poll intervals.
	waitCounter(t, "upstream dials", 10*time.Second, upstreamDials.Load, 2)
	time.Sleep(20 * cfg.PollInterval)
	if got := upstreamDials.Load(); got != 2 {
		t.Errorf("upstream dials = %d, want 2 (the Begin and the watch)", got)
	}
	if got := ro.refused.Load(); got != 1 {
		t.Errorf("refused begins at the upstream = %d, want 1", got)
	}
	if got := h.backend.Engine.Counters().Snapshot().Begins; got != 1 {
		t.Errorf("master begins = %d, want 1", got)
	}
	if got := sup.Counters().UpstreamFallbacks.Load(); got != 1 {
		t.Errorf("upstream fallbacks = %d, want 1", got)
	}
	mutate(t, h.store, 0)
	waitConverged(t, h, sup, 10*time.Second)
}

// TestStaleSessionAtUpstreamDiverts: a resume rejected with
// e-syncRefreshRequired at the preferred upstream (a mid-tier that
// restarted empty or trimmed past us) diverts to the fallback instead of
// re-beginning against the server that just lost the session.
func TestStaleSessionAtUpstreamDiverts(t *testing.T) {
	h := newHarness(t)
	gb, gatedSrv := serveGated(t, h)
	gb.allow.Store(true) // sessions allowed; the stale cookie is the fault

	cfg := h.config(t)
	cfg.Master = gatedSrv.Addr()
	cfg.Fallback = h.srv.Addr()
	// Durable state whose cookie names no session at the upstream.
	cfg.StateDir = t.TempDir()
	note, err := json.Marshal(position{Cookie: "sess-999@12345", Addr: cfg.Master, Spec: h.spec.Normalize().Key()})
	if err != nil {
		t.Fatal(err)
	}
	j, err := persist.Dir{Path: cfg.StateDir}.Journal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Commit(false, nil, string(note)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	sup := startSupervisor(t, cfg)

	waitSynced(t, sup)
	if got := sup.Target(); got != h.srv.Addr() {
		t.Errorf("target = %s, want fallback %s", got, h.srv.Addr())
	}
	waitCounter(t, "stale sessions", 10*time.Second,
		func() int64 { return sup.Counters().StaleSessions.Load() }, 1)
	waitCounter(t, "upstream fallbacks", 10*time.Second,
		func() int64 { return sup.Counters().UpstreamFallbacks.Load() }, 1)
	waitConverged(t, h, sup, 10*time.Second)
}

// TestProbeReturnsToPreferredUpstream: a diverted supervisor probes the
// preferred upstream again when the upstream answers its filters watch, and
// stays there for good.
func TestProbeReturnsToPreferredUpstream(t *testing.T) {
	h := newHarness(t)
	wb, upstream := serveWatched(t, h)

	cfg := h.config(t)
	cfg.Master = upstream.Addr()
	cfg.Fallback = h.srv.Addr()
	sup := startSupervisor(t, cfg)

	waitSynced(t, sup) // first exchange lands on the fallback
	waitCounter(t, "upstream fallbacks", 10*time.Second,
		func() int64 { return sup.Counters().UpstreamFallbacks.Load() }, 1)

	// The upstream starts admitting the spec and answers the watch.
	wb.open()
	waitTarget(t, sup, upstream.Addr())
	mutate(t, h.store, 0)
	waitConverged(t, h, sup, 10*time.Second)
	if got := sup.Counters().UpstreamFallbacks.Load(); got != 1 {
		t.Errorf("upstream fallbacks = %d, want 1 (the probe must stick)", got)
	}
}

// TestRefusingUpstreamCostsOneBegin: while the preferred upstream refuses the
// spec, a diverted supervisor does not probe it at all — the fallback master
// serves one Begin however long the refusal lasts, and the upstream sees only
// the Begin it refused. When the upstream admits the spec and signals its
// watchers, the supervisor moves there with one Begin and ends its session at
// the master.
func TestRefusingUpstreamCostsOneBegin(t *testing.T) {
	h := newHarness(t)
	wb, upstream := serveWatched(t, h)

	cfg := h.config(t)
	cfg.Master = upstream.Addr()
	cfg.Fallback = h.srv.Addr()
	sup := startSupervisor(t, cfg)

	waitSynced(t, sup)
	time.Sleep(2 * time.Second) // the refusal lasts: nothing may re-probe it
	if got := h.backend.Engine.Counters().Snapshot().Begins; got != 1 {
		t.Errorf("master begins while the upstream refused = %d, want 1", got)
	}
	if got := wb.refused.Load(); got != 1 {
		t.Errorf("refused begins at the upstream = %d, want 1", got)
	}
	if got := h.backend.Engine.Sessions(); got != 1 {
		t.Fatalf("master sessions while diverted = %d, want 1", got)
	}

	wb.open()
	waitTarget(t, sup, upstream.Addr())
	// Only an exchange at the upstream can bring the leaf this change.
	mutate(t, h.store, 0)
	waitConverged(t, h, sup, 10*time.Second)
	if got := wb.Engine.Counters().Snapshot().Begins; got != 1 {
		t.Errorf("upstream begins = %d, want 1", got)
	}
	// The fallback session is ended before the probe dials the upstream.
	if got := h.backend.Engine.Sessions(); got != 0 {
		t.Errorf("master sessions after the move = %d, want 0", got)
	}
	if got := h.backend.Engine.Counters().Snapshot().Begins; got != 1 {
		t.Errorf("master begins = %d, want 1", got)
	}
	if got := wb.refused.Load(); got != 1 {
		t.Errorf("refused begins at the upstream = %d, want 1", got)
	}
}

// waitTarget waits for the supervisor to synchronize against addr.
func waitTarget(t *testing.T, sup *Supervisor, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for sup.Target() != addr {
		if time.Now().After(deadline) {
			t.Fatalf("target = %s, want %s", sup.Target(), addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRetryWithoutFallbackBacksOff: with no fallback configured, a
// containment rejection keeps the supervisor retrying with backoff; once
// the upstream's stored queries grow to cover the spec it synchronizes.
func TestRetryWithoutFallbackBacksOff(t *testing.T) {
	h := newHarness(t)
	gb, gatedSrv := serveGated(t, h)

	cfg := h.config(t)
	cfg.Master = gatedSrv.Addr()
	sup := startSupervisor(t, cfg)

	waitCounter(t, "dials", 10*time.Second,
		func() int64 { return sup.Counters().Dials.Load() }, 3)
	if sup.Counters().UpstreamFallbacks.Load() != 0 {
		t.Error("diverted with no fallback configured")
	}
	gb.allow.Store(true)
	waitSynced(t, sup)
	waitConverged(t, h, sup, 10*time.Second)
}

// parkingBackend is a gated backend that parks filters watches the way a
// mid-tier that never comes to serve the spec does.
type parkingBackend struct{ *gatedBackend }

func (parkingBackend) Ready(query.Query) (bool, <-chan struct{}) { return false, nil }
func (parkingBackend) Park(query.Query) func()                   { return func() {} }

// TestStopDuringWatchDial: Stop cancels the filters watch by closing its
// connection; a watch still dialling has none yet, and must notice the
// cancellation once it connects instead of parking on a long-poll nobody
// will interrupt.
func TestStopDuringWatchDial(t *testing.T) {
	h := newHarness(t)
	gatedSrv, err := ldapnet.Serve("127.0.0.1:0",
		parkingBackend{&gatedBackend{StoreBackend: ldapnet.NewStoreBackend(h.store)}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gatedSrv.Close() })

	// The first dial to the gated upstream is the rejected Begin; the second
	// is the watch, held until Stop has cancelled it.
	dialling := make(chan struct{})
	release := make(chan struct{})
	var upstreamDials atomic.Int32
	cfg := h.config(t)
	cfg.Master = gatedSrv.Addr()
	cfg.Fallback = h.srv.Addr()
	cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		if addr == gatedSrv.Addr() && upstreamDials.Add(1) == 2 {
			close(dialling)
			<-release
		}
		return net.DialTimeout("tcp", addr, timeout)
	}
	rep, err := replica.NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	sup, err := New(cfg, rep)
	if err != nil {
		t.Fatal(err)
	}
	sup.Start()
	<-dialling

	stopped := make(chan error, 1)
	go func() { stopped <- sup.Stop() }()
	deadline := time.Now().Add(10 * time.Second)
	for cancelled := false; !cancelled; time.Sleep(time.Millisecond) {
		sup.watchMu.Lock()
		cancelled = sup.watchStop == nil
		sup.watchMu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("Stop never cancelled the watch")
		}
	}
	close(release)
	select {
	case err := <-stopped:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung on a watch that connected after it was cancelled")
	}
}
