package supervisor

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/ldapnet"
	"filterdir/internal/resync"
)

// requestHook is a Dial hook that counts dials and the requests written over
// all its connections, and calls before just before the at-th goes out.
type requestHook struct {
	at     int64
	before func()
	dials  atomic.Int64
	writes atomic.Int64
}

func (h *requestHook) dial(addr string, timeout time.Duration) (net.Conn, error) {
	h.dials.Add(1)
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return hookConn{Conn: conn, h: h}, nil
}

type hookConn struct {
	net.Conn
	h *requestHook
}

func (c hookConn) Write(b []byte) (int, error) {
	if c.h.writes.Add(1) == c.h.at && c.h.before != nil {
		c.h.before()
	}
	return c.Conn.Write(b)
}

// streamBackend serves the master store and records what the sessions ask
// for: the cookie each poll presents (a persist request polls too) and the
// subscriptions handed out, so a test can end a stream from the supplier's
// side.
type streamBackend struct {
	*ldapnet.StoreBackend
	mu     sync.Mutex
	polled []string
	subs   []*resync.Subscription
}

func (b *streamBackend) ReSyncPoll(cookie string) (*resync.PollResult, error) {
	b.mu.Lock()
	b.polled = append(b.polled, cookie)
	b.mu.Unlock()
	return b.StoreBackend.ReSyncPoll(cookie)
}

func (b *streamBackend) ReSyncPersist(cookie string) (*resync.Subscription, error) {
	sub, err := b.StoreBackend.ReSyncPersist(cookie)
	if err == nil {
		b.mu.Lock()
		b.subs = append(b.subs, sub)
		b.mu.Unlock()
	}
	return sub, err
}

// endStreams ends every stream handed out so far, as the engine's
// slow-consumer policy does, and reports how many there were.
func (b *streamBackend) endStreams() int {
	b.mu.Lock()
	subs := b.subs
	b.subs = nil
	b.mu.Unlock()
	for _, sub := range subs {
		sub.Close()
	}
	return len(subs)
}

// serveStreams serves h's store through a streamBackend.
func serveStreams(t *testing.T, h *harness) (*streamBackend, *ldapnet.Server) {
	t.Helper()
	b := &streamBackend{StoreBackend: h.backend}
	srv, err := ldapnet.Serve("127.0.0.1:0", b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return b, srv
}

// point is the sync point a session cookie names ("sess-N@<CSN>").
func point(t *testing.T, cookie string) int {
	t.Helper()
	_, p, ok := strings.Cut(cookie, "@")
	n, err := strconv.Atoi(p)
	if !ok || err != nil {
		t.Fatalf("cookie %q names no sync point", cookie)
	}
	return n
}

// TestPersistOntoTrimmedJournalConverges: the stream is asked for from a
// cookie the master's journal no longer covers, because one delete and five
// modifies landed between the Begin and the persist request. The answer is a
// full reload, and the replica must drop what it held: streamed as bare adds
// it kept the deleted entry and held 8 entries against the master's 7.
func TestPersistOntoTrimmedJournalConverges(t *testing.T) {
	h := newHarness(t, dit.WithJournalLimit(2))
	hook := &requestHook{at: 2} // the Begin, then the persist request
	trimmed := make(chan struct{})
	hook.before = func() {
		defer close(trimmed)
		if err := h.store.Delete(dn.MustParse("cn=p0,c=us,o=xyz")); err != nil {
			t.Error(err)
		}
		for i := 0; i < 5; i++ {
			if err := h.store.Modify(dn.MustParse("cn=p1,c=us,o=xyz"),
				[]dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{fmt.Sprint("m", i)}}}); err != nil {
				t.Error(err)
			}
		}
	}
	cfg := h.config(t)
	cfg.Mode = ModePersist
	cfg.Dial = hook.dial
	sup := startSupervisor(t, cfg)
	select {
	case <-trimmed:
	case <-time.After(10 * time.Second):
		t.Fatal("the supervisor never asked for its stream")
	}
	waitConverged(t, h, sup, 10*time.Second)
	if c := sup.Counters(); c.Begins.Load() != 1 || c.FullReloads.Load() != 1 {
		t.Errorf("begins = %d, full reloads = %d, want 1 and 1: the reload answers the persist request",
			c.Begins.Load(), c.FullReloads.Load())
	}
	// The stream is asked for again from the reload's cookie, and carries
	// what follows.
	waitCounter(t, "master persist streams", 10*time.Second, h.backend.SyncCounters().PersistStreams.Load, 1)
	mutate(t, h.store, 0)
	waitConverged(t, h, sup, 10*time.Second)
	if n := sup.Counters().StreamBatches.Load(); n < 1 {
		t.Errorf("stream batches = %d, want the mutation pushed", n)
	}
}

// TestPersistDialsOncePerConnect: the stream is held open on the connection
// of the exchanges, not on a second one; an ended stream costs one dial, the
// reconnect that resumes the session by its cookie.
func TestPersistDialsOncePerConnect(t *testing.T) {
	h := newHarness(t)
	b, srv := serveStreams(t, h)
	hook := &requestHook{}
	cfg := h.config(t)
	cfg.Master = srv.Addr()
	cfg.Mode = ModePersist
	cfg.Dial = hook.dial
	sup := startSupervisor(t, cfg)
	waitSynced(t, sup)
	mutate(t, h.store, 0)
	waitCounter(t, "stream batches", 10*time.Second, sup.Counters().StreamBatches.Load, 1)
	if d, n := hook.dials.Load(), sup.Counters().Dials.Load(); d != 1 || n != 1 {
		t.Fatalf("streaming after one connect: %d dials, %d counted, want 1 and 1", d, n)
	}

	// The supplier ends the stream, as its slow-consumer policy does. The
	// reconnect's poll presents the newest cookie the supervisor held, never
	// the one the stream began at, and the session streams on.
	waitConverged(t, h, sup, 10*time.Second)
	held := sup.Cookie()
	b.mu.Lock()
	before := len(b.polled) // a persist request polls too
	b.mu.Unlock()
	if n := b.endStreams(); n != 1 {
		t.Fatalf("%d streams to end, want 1", n)
	}
	waitCounter(t, "fallbacks", 10*time.Second, sup.Counters().Fallbacks.Load, 1)
	waitCounter(t, "master persist streams", 10*time.Second, h.backend.SyncCounters().PersistStreams.Load, 2)
	b.mu.Lock()
	polled := append([]string(nil), b.polled[before:]...)
	b.mu.Unlock()
	for _, c := range polled {
		if point(t, c) < point(t, held) {
			t.Errorf("after the stream ended the supervisor presented %q, older than %q", c, held)
		}
	}
	mutate(t, h.store, 1)
	waitConverged(t, h, sup, 10*time.Second)
	if point(t, sup.Cookie()) < point(t, held) {
		t.Errorf("supervisor holds %q, older than %q", sup.Cookie(), held)
	}
	if d, n := hook.dials.Load(), sup.Counters().Dials.Load(); d != 2 || n != 2 {
		t.Errorf("after one ended stream: %d dials, %d counted, want 2 and 2", d, n)
	}
	if eng := h.backend.Engine.Counters().Snapshot(); eng.Begins != 1 || eng.FullReloads != 0 {
		t.Errorf("master begins=%d full-reloads=%d, want 1 and 0", eng.Begins, eng.FullReloads)
	}
}
