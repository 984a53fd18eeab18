package supervisor

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"filterdir/internal/replica"
)

// newIdle builds a supervisor that is never started, so a test drives its
// filters watch directly.
func newIdle(t *testing.T, cfg Config) *Supervisor {
	t.Helper()
	rep, err := replica.NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	sup, err := New(cfg, rep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sup.Stop() })
	return sup
}

// TestWatchAsksForProbe: no probe is due while the watch is parked, nor
// after a cancelled watch's upstream comes to serve the spec; an answer to
// the current watch makes one due, and stopping the watch — what the loop
// does as it starts the probe — clears it.
func TestWatchAsksForProbe(t *testing.T) {
	h := newHarness(t)
	wb, upstream := serveWatched(t, h)
	cfg := h.config(t)
	cfg.Master = upstream.Addr()
	cfg.Fallback = h.srv.Addr()
	sup := newIdle(t, cfg)

	parked := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for wb.asked.Load() < n {
			if time.Now().After(deadline) {
				t.Fatal("the watch never reached the upstream")
			}
			time.Sleep(time.Millisecond)
		}
	}
	sup.startWatch()
	parked(1)
	sup.stopWatch()
	sup.watchWG.Wait()
	wb.open()
	if sup.probeDue.Load() {
		t.Fatal("a cancelled watch made a probe due")
	}

	wb.mu.Lock()
	wb.allow.Store(false)
	wb.mu.Unlock()
	sup.startWatch()
	parked(2)
	if sup.probeDue.Load() {
		t.Fatal("probe due before the upstream answered the watch")
	}
	wb.open()
	deadline := time.Now().Add(10 * time.Second)
	for !sup.probeDue.Load() {
		if time.Now().After(deadline) {
			t.Fatal("the watch's answer never made a probe due")
		}
		time.Sleep(time.Millisecond)
	}
	sup.stopWatch()
	if sup.probeDue.Load() {
		t.Fatal("stopWatch left the probe due")
	}
}

// TestRefusedWatchIsNotRetried: an upstream that refuses the filters watch
// is not a tier; the watch ends at the refusal, asks for no probe, and does
// not dial the upstream again.
func TestRefusedWatchIsNotRetried(t *testing.T) {
	h := newHarness(t)
	_, upstream := serveGated(t, h)
	var dials atomic.Int32
	cfg := h.config(t)
	cfg.Master = upstream.Addr()
	cfg.Fallback = h.srv.Addr()
	cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		dials.Add(1)
		return net.DialTimeout("tcp", addr, timeout)
	}
	sup := newIdle(t, cfg)

	sup.startWatch()
	sup.watchWG.Wait() // the refusal ends the watch
	if sup.probeDue.Load() {
		t.Error("a refused watch made a probe due")
	}
	time.Sleep(20 * cfg.PollInterval) // a retry would come after one interval
	if got := dials.Load(); got != 1 {
		t.Errorf("watch dialled the upstream %d times, want 1", got)
	}
}

// TestWatchRetriesAfterTransportFailure: a watch whose upstream is down
// retries after a poll interval and is answered once the upstream is back.
func TestWatchRetriesAfterTransportFailure(t *testing.T) {
	h := newHarness(t)
	wb, upstream := serveWatched(t, h)
	wb.open()
	var dials atomic.Int32
	cfg := h.config(t)
	cfg.Master = upstream.Addr()
	cfg.Fallback = h.srv.Addr()
	cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		if dials.Add(1) < 3 {
			return nil, errors.New("upstream down")
		}
		return net.DialTimeout("tcp", addr, timeout)
	}
	sup := newIdle(t, cfg)

	sup.startWatch()
	sup.watchWG.Wait() // answered on the third dial
	if !sup.probeDue.Load() {
		t.Error("the watch ended without making a probe due")
	}
	if got := dials.Load(); got != 3 {
		t.Errorf("watch dialled %d times, want 3 (two failures, then the answer)", got)
	}
}
