package resync

import (
	"fmt"
	"testing"
	"time"
)

// These tests pin the `keep last_n` sync-point retention bound (the engine's
// keepPoints, shrunk here from its fixed default of 64). Sync points accumulate only while
// unacknowledged — persist-mode pushes append one point per batch until
// the consumer proves a position by presenting its cookie — so the window
// is exercised by streaming batches to a consumer that never acknowledges
// and then resuming from its last-known cookie: inside the window the
// resume is incremental, beyond it the session degrades to exactly one
// full reload whose cookie is live again.

// streamBatches streams m single-update batches to a subscriber that
// consumes but never acknowledges them, growing the session's
// unacknowledged point history by m.
func streamBatches(t *testing.T, eng *Engine, cookie string, m int, serialBase int) {
	t.Helper()
	sub, err := eng.Persist(cookie)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for i := 0; i < m; i++ {
		addPerson(t, eng.store, fmt.Sprintf("r%02d", i), fmt.Sprintf("04%02d", serialBase+i), "1")
		select {
		case b := <-sub.Updates:
			if len(b.Updates) == 0 {
				t.Fatalf("push %d: empty batch", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("push %d never arrived", i)
		}
	}
}

func TestSyncPointRetentionUnacked(t *testing.T) {
	for _, keep := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("keep=%d within window", keep), func(t *testing.T) {
			master, _ := chunkedMaster(t, 4)
			eng := NewEngine(master)
			eng.keepPoints = keep
			res, err := eng.Begin(specSerial04)
			if err != nil {
				t.Fatal(err)
			}
			// keep-1 unacknowledged pushes: the subscription cookie is the
			// oldest of keep retained points, still inside the window.
			streamBatches(t, eng, res.Cookie, keep-1, 50)
			r, err := eng.Poll(res.Cookie)
			if err != nil {
				t.Fatal(err)
			}
			if r.FullReload {
				t.Fatalf("cookie with %d unacked pushes (keep=%d) degraded to a reload", keep-1, keep)
			}
			if len(r.Updates) != keep-1 {
				t.Errorf("resume re-sent %d updates, want the %d unacknowledged", len(r.Updates), keep-1)
			}
			if got := eng.Counters().Snapshot().FullReloads; got != 0 {
				t.Errorf("full reloads = %d, want 0", got)
			}
		})
		t.Run(fmt.Sprintf("keep=%d evicted", keep), func(t *testing.T) {
			master, _ := chunkedMaster(t, 4)
			eng := NewEngine(master)
			eng.keepPoints = keep
			res, err := eng.Begin(specSerial04)
			if err != nil {
				t.Fatal(err)
			}
			// keep+2 unacknowledged pushes evict the subscription cookie's
			// point: the only safe answer to presenting it is the full
			// content.
			streamBatches(t, eng, res.Cookie, keep+2, 50)
			r, err := eng.Poll(res.Cookie)
			if err != nil {
				t.Fatal(err)
			}
			if !r.FullReload {
				t.Fatal("evicted cookie did not degrade to a full reload")
			}
			if got := eng.Counters().Snapshot().FullReloads; got != 1 {
				t.Errorf("full reloads = %d, want 1", got)
			}
			// The reload's cookie is a live resume point.
			addPerson(t, master, "after", "0499", "1")
			r2, err := eng.Poll(r.Cookie)
			if err != nil {
				t.Fatal(err)
			}
			if r2.FullReload || len(r2.Updates) != 1 {
				t.Errorf("post-reload poll: full=%v updates=%d, want incremental single update",
					r2.FullReload, len(r2.Updates))
			}
		})
	}
}

// TestAcknowledgedCookieCollapsesHistory: presenting a cookie acknowledges
// it and drops the points before it — so after a successful poll only the
// acknowledged base and newer points remain, independent of how large the
// retention window is.
func TestAcknowledgedCookieCollapsesHistory(t *testing.T) {
	master, _ := chunkedMaster(t, 4)
	eng := NewEngine(master)
	eng.keepPoints = 32
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	cookies := []string{res.Cookie}
	for i := 0; i < 3; i++ {
		addPerson(t, master, fmt.Sprintf("r%02d", i), fmt.Sprintf("04%02d", 50+i), "1")
		r, err := eng.Poll(cookies[len(cookies)-1])
		if err != nil {
			t.Fatal(err)
		}
		cookies = append(cookies, r.Cookie)
	}
	// The previously acknowledged cookie is the session's base: resumable.
	r, err := eng.Poll(cookies[len(cookies)-2])
	if err != nil {
		t.Fatal(err)
	}
	if r.FullReload {
		t.Error("previous acknowledged cookie degraded to a reload")
	}
	// The Begin cookie was superseded by later acknowledgments: despite the
	// wide retention window it is gone, because each acknowledgment proves
	// the consumer moved past it.
	r, err = eng.Poll(cookies[0])
	if err != nil {
		t.Fatal(err)
	}
	if !r.FullReload {
		t.Error("acknowledged-past cookie resumed incrementally, want reload")
	}
}

// TestSyncPointRetentionDefault: the engine keeps the documented default of
// 64 points, so a consumer can lag a long push
// backlog and still resume incrementally.
func TestSyncPointRetentionDefault(t *testing.T) {
	master, _ := chunkedMaster(t, 4)
	eng := NewEngine(master)
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	streamBatches(t, eng, res.Cookie, 10, 50)
	r, err := eng.Poll(res.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	if r.FullReload {
		t.Error("cookie 10 unacked pushes old degraded under the default retention of 64")
	}
}
