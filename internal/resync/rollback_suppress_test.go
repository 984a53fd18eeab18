package resync

import (
	"testing"
	"time"
)

// These tests pin the interaction between no-op-modify suppression and
// sync-point rollback: when a response is lost and the interval is
// re-derived from an older sync point, a modify-then-revert pair must
// still coalesce to nothing (suppressed), the cookie must advance in
// place, and a subsequent real change must surface as exactly one modify.
// The oracle (internal/oracle) hammers the same interaction randomly;
// these are the deterministic regressions.

func TestSuppressionSurvivesPollRollback(t *testing.T) {
	master := newMaster(t)
	a := addPerson(t, master, "a", "0401", "1")

	eng := NewEngine(master)
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	c1 := res.Cookie

	// A modify inside the content, whose poll response is lost in flight.
	mustModify(t, master, a, "dept", "9")
	if res, err = eng.Poll(c1); err != nil {
		t.Fatal(err)
	}
	if len(res.Updates) != 1 || res.Updates[0].Action != ActionModify {
		t.Fatalf("lost interval: got %v, want one modify", res.Updates)
	}

	// The change is reverted before the consumer re-polls its durable
	// cookie: the engine rolls back to c1's sync point and must coalesce
	// the modify-revert pair to a suppressed, empty update set.
	mustModify(t, master, a, "dept", "1")
	before := eng.Counters().SuppressedModifies.Load()
	res, err = eng.Poll(c1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updates) != 0 || res.FullReload {
		t.Fatalf("modify-then-revert across rollback: got %v (reload=%v), want empty", res.Updates, res.FullReload)
	}
	if got := eng.Counters().SuppressedModifies.Load(); got != before+1 {
		t.Errorf("SuppressedModifies = %d, want %d", got, before+1)
	}
	// Nothing to resend and no content movement: the cookie advances in
	// place rather than minting a new resumable point.
	if res.Cookie != c1 {
		t.Errorf("cookie advanced to %q on a suppressed empty poll, want %q", res.Cookie, c1)
	}

	// A real change afterwards must surface as exactly one modify.
	mustModify(t, master, a, "dept", "5")
	res, err = eng.Poll(res.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updates) != 1 || res.Updates[0].Action != ActionModify {
		t.Fatalf("post-revert change: got %v, want one modify", res.Updates)
	}
	if got := res.Updates[0].Entry.First("dept"); got != "5" {
		t.Errorf("modify carries dept=%q, want 5", got)
	}
}

func TestSuppressionSurvivesPersistRollback(t *testing.T) {
	master := newMaster(t)
	a := addPerson(t, master, "a", "0401", "1")

	eng := NewEngine(master)
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	c1 := res.Cookie

	// A persist consumer receives two batches (modify, then revert) but
	// crashes without acknowledging either.
	sub, err := eng.Persist(c1)
	if err != nil {
		t.Fatal(err)
	}
	next := func(what string) Batch {
		b, _, late := recv(sub, time.After(5*time.Second))
		if late {
			t.Fatalf("no persist batch for %s", what)
		}
		return b
	}
	mustModify(t, master, a, "dept", "9")
	if b := next("modify"); len(b.Updates) != 1 || b.Updates[0].Action != ActionModify {
		t.Fatalf("persist modify batch: got %v", b.Updates)
	}
	mustModify(t, master, a, "dept", "1")
	if b := next("revert"); len(b.Updates) != 1 || b.Updates[0].Action != ActionModify {
		t.Fatalf("persist revert batch: got %v", b.Updates)
	}
	sub.Close()

	// The restarted consumer resumes from its durable cookie c1. Persist
	// mode never acknowledged, so the engine still has the point; the
	// whole modify-revert interval must coalesce to a suppressed no-op.
	before := eng.Counters().SuppressedModifies.Load()
	res, err = eng.Poll(c1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updates) != 0 || res.FullReload {
		t.Fatalf("resume after unacked persist batches: got %v (reload=%v), want empty", res.Updates, res.FullReload)
	}
	if got := eng.Counters().SuppressedModifies.Load(); got != before+1 {
		t.Errorf("SuppressedModifies = %d, want %d", got, before+1)
	}

	// And the session remains live for real changes.
	mustModify(t, master, a, "dept", "7")
	res, err = eng.Poll(res.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updates) != 1 || res.Updates[0].Action != ActionModify {
		t.Fatalf("post-resume change: got %v, want one modify", res.Updates)
	}
}
