package supervisor

import (
	"encoding/json"
	"net"
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
// stored queries do not (yet) cover the leaf's spec.
type gatedBackend struct {
	*ldapnet.StoreBackend
	allow atomic.Bool
}

func (b *gatedBackend) ReSyncBegin(q query.Query) (*resync.PollResult, error) {
	if !b.allow.Load() {
		return nil, ldapnet.ErrNotContained
	}
	return b.StoreBackend.ReSyncBegin(q)
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
	cfg.RetryUpstreamAfter = time.Hour
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
	cfg.RetryUpstreamAfter = time.Hour
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

// TestProbeReturnsToPreferredUpstream: after RetryUpstreamAfter on the
// fallback, the supervisor probes the preferred upstream again; once the
// upstream admits the spec the supervisor stays there for good.
func TestProbeReturnsToPreferredUpstream(t *testing.T) {
	h := newHarness(t)
	gb, gatedSrv := serveGated(t, h)

	cfg := h.config(t)
	cfg.Master = gatedSrv.Addr()
	cfg.Fallback = h.srv.Addr()
	cfg.RetryUpstreamAfter = 40 * time.Millisecond
	sup := startSupervisor(t, cfg)

	waitSynced(t, sup) // first exchange lands on the fallback
	waitCounter(t, "upstream fallbacks", 10*time.Second,
		func() int64 { return sup.Counters().UpstreamFallbacks.Load() }, 1)

	// The upstream starts admitting the spec; the next probe must stick.
	gb.allow.Store(true)
	waitCounter(t, "upstream begins", 10*time.Second,
		func() int64 { return gb.Engine.Counters().Snapshot().Begins }, 1)
	deadline := time.Now().Add(10 * time.Second)
	for sup.Target() != gatedSrv.Addr() {
		if time.Now().After(deadline) {
			t.Fatalf("target = %s, want preferred upstream %s", sup.Target(), gatedSrv.Addr())
		}
		time.Sleep(5 * time.Millisecond)
	}
	mutate(t, h.store, 0)
	waitConverged(t, h, sup, 10*time.Second)
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
// mid-tier whose filter set never changes does.
type parkingBackend struct{ *gatedBackend }

func (parkingBackend) FilterGeneration() (uint64, <-chan struct{}) { return 1, nil }
func (parkingBackend) Admit(query.Query) error                     { return ldapnet.ErrNotContained }

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
	cfg.RetryUpstreamAfter = time.Hour
	cfg.WatchFilters = true
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
