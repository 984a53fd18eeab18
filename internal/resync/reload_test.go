package resync

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/proto"
)

// These tests pin the reload snapshot (reload.go): what a content group
// shares between members that start a full transfer at the same store CSN,
// when it stops sharing, and that an ungrouped engine never does.

// TestConcurrentBeginsShareSnapshots is the master-restart scenario under
// the race detector: 16 replicas of one spec Begin at once (chunked, so
// every one of them also walks its transfer by resume token) while a writer
// keeps committing. Every session must converge, every token issued from a
// shared snapshot must verify for the member presenting it, and the content
// must have been materialised no more often than there were distinct CSNs
// to materialise it at.
func TestConcurrentBeginsShareSnapshots(t *testing.T) {
	const members, rounds = 16, 3
	master, _ := chunkedMaster(t, 60)
	eng := NewEngine(master, WithChunkSize(8))

	var (
		mu      sync.Mutex
		csns    = map[uint64]bool{} // distinct snapshot CSNs the members started from
		cookies []string
		helds   []map[string]bool
	)
	for round := 0; round < rounds; round++ {
		stop := make(chan struct{})
		var writer sync.WaitGroup
		writer.Add(1)
		go func() {
			defer writer.Done()
			// Add/delete over a few slots keeps the content — and every
			// Begin's scan of it — bounded; the pause leaves stretches in
			// which several members find the store at one CSN.
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-time.After(200 * time.Microsecond):
				}
				cn := fmt.Sprintf("w%02d", i%32)
				d := dn.MustParse("cn=" + cn + ",c=us,o=xyz")
				if master.Delete(d) == nil {
					continue
				}
				e := entry.New(d)
				e.Put("objectclass", "person").Put("cn", cn).Put("sn", cn).Put("serialNumber", fmt.Sprintf("04%02d", i%100))
				if err := master.Add(e); err != nil {
					t.Errorf("writer add: %v", err)
					return
				}
			}
		}()
		var wg sync.WaitGroup
		for m := 0; m < members; m++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := eng.Begin(specSerial04)
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				held := map[string]bool{}
				var toks []proto.ResumeToken
				for chunk := 0; ; chunk++ {
					held = consumerContent(held, res)
					if res.Resume == nil {
						break
					}
					toks = append(toks, *res.Resume)
					if res, err = eng.ResumeReload(*res.Resume); err != nil {
						t.Errorf("resume chunk %d: %v", chunk+1, err)
						return
					}
					if res.FullReload {
						t.Errorf("token for chunk %d refused: transfer restarted", chunk+1)
						return
					}
				}
				mu.Lock()
				defer mu.Unlock()
				for _, tok := range toks {
					csns[tok.CSN] = true
				}
				cookies = append(cookies, res.Cookie)
				helds = append(helds, held)
			}()
		}
		wg.Wait()
		close(stop)
		writer.Wait()
	}
	if t.Failed() {
		return
	}

	// The store is quiet now: one catch-up poll must bring every session,
	// whichever snapshot it started from, to the master's content.
	want := map[string]bool{}
	for _, e := range master.MatchAll(specSerial04) {
		want[e.DN().Norm()] = true
	}
	for i, cookie := range cookies {
		res, err := eng.Poll(cookie)
		if err != nil {
			t.Fatalf("session %d catch-up poll: %v", i, err)
		}
		if res.FullReload {
			t.Errorf("session %d: catch-up degraded to a full reload", i)
		}
		held := consumerContent(helds[i], res)
		if len(held) != len(want) {
			t.Errorf("session %d holds %d entries, master selects %d", i, len(held), len(want))
			continue
		}
		for norm := range want {
			if !held[norm] {
				t.Errorf("session %d is missing %s", i, norm)
				break
			}
		}
	}

	snap := eng.Counters().Snapshot()
	if snap.ResumeRejects != 0 {
		t.Errorf("ResumeRejects = %d, want 0", snap.ResumeRejects)
	}
	if got := snap.ReloadSnapshotsBuilt + snap.ReloadSnapshotsShared; got != members*rounds {
		t.Errorf("snapshots built+shared = %d, want one per Begin = %d", got, members*rounds)
	}
	if snap.ReloadSnapshotsBuilt > int64(len(csns)) {
		t.Errorf("content materialised %d times for %d distinct CSNs", snap.ReloadSnapshotsBuilt, len(csns))
	}
	t.Logf("%d begins: %d snapshots built at %d distinct CSNs, %d shared",
		members*rounds, snap.ReloadSnapshotsBuilt, len(csns), snap.ReloadSnapshotsShared)
	if holds := master.ActiveHolds(); holds != 0 {
		t.Errorf("%d snapshot holds outstanding after every member polled past its transfer", holds)
	}
}

// TestReloadSnapshotLifetime walks the cache through its states: built by
// the first member, reused while the store stands still, replaced by the
// first request after a commit, let go by a member exchange that sees the
// store ahead of it, and gone with the group.
func TestReloadSnapshotLifetime(t *testing.T) {
	master, _ := chunkedMaster(t, 5)
	eng := NewEngine(master)
	counts := func() (built, shared int64) {
		s := eng.Counters().Snapshot()
		return s.ReloadSnapshotsBuilt, s.ReloadSnapshotsShared
	}
	begin := func() (*PollResult, *session) {
		t.Helper()
		res, err := eng.Begin(specSerial04)
		if err != nil {
			t.Fatal(err)
		}
		sess := sessionOf(t, eng, res.Cookie)
		return res, sess
	}

	a, sa := begin()
	b, _ := begin()
	if built, shared := counts(); built != 1 || shared != 1 {
		t.Fatalf("two begins at one CSN: built/shared = %d/%d, want 1/1", built, shared)
	}
	if &a.Updates[0] != &b.Updates[0] || a.Enc != b.Enc || a.Enc == nil {
		t.Error("members at one CSN do not share updates and encoding memo")
	}
	if a.Updates[0].Entry != master.MatchAll(specSerial04)[0] {
		t.Error("a whole-entry view copied the stored entries")
	}

	// A commit makes the cached snapshot stale: the next Begin rebuilds.
	addPerson(t, master, "late", "0499", "1")
	c, _ := begin()
	if built, shared := counts(); built != 2 || shared != 1 {
		t.Fatalf("begin after a commit: built/shared = %d/%d, want 2/1", built, shared)
	}
	if len(c.Updates) != len(a.Updates)+1 {
		t.Errorf("rebuilt snapshot has %d entries, want %d", len(c.Updates), len(a.Updates)+1)
	}

	// A poll that crosses a later commit lets the cached snapshot go.
	g := sa.group
	if g.reload.Load() == nil {
		t.Fatal("no snapshot cached after Begin")
	}
	addPerson(t, master, "later", "0498", "1")
	if _, err := eng.Poll(a.Cookie); err != nil {
		t.Fatal(err)
	}
	if g.reload.Load() != nil {
		t.Error("snapshot still cached after a member saw the store move past it")
	}

	// A distinct attribute view of the same group shares the snapshot but
	// not the updates.
	narrow := specSerial04
	narrow.Attrs = []string{"cn"}
	d, _ := begin()
	resN, err := eng.Begin(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if built, shared := counts(); built != 3 || shared != 2 {
		t.Errorf("second view of one snapshot: built/shared = %d/%d, want 3/2", built, shared)
	}
	if resN.Enc == d.Enc || resN.Updates[0].Entry.Has("sn") || !resN.Updates[0].Entry.Frozen() {
		t.Error("attribute view shares encodings with the full view, leaks attributes, or is mutable")
	}

	for _, cookie := range []string{a.Cookie, b.Cookie, c.Cookie, d.Cookie, resN.Cookie} {
		if err := eng.End(cookie); err != nil {
			t.Fatal(err)
		}
	}
	if g.reload.Load() != nil {
		t.Error("emptied group still holds a reload snapshot")
	}
}

// TestUngroupedEngineNeverSharesReloads: WithoutGrouping is the bypass — a
// private snapshot per transfer, no encoding memo.
func TestUngroupedEngineNeverSharesReloads(t *testing.T) {
	master, _ := chunkedMaster(t, 10)
	eng := NewEngine(master, WithoutGrouping(), WithChunkSize(4))
	for i := 0; i < 3; i++ {
		res, err := eng.Begin(specSerial04)
		if err != nil {
			t.Fatal(err)
		}
		for res.Resume != nil {
			if res.Enc != nil {
				t.Fatal("ungrouped chunk carries a shared encoding memo")
			}
			if res, err = eng.ResumeReload(*res.Resume); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s := eng.Counters().Snapshot(); s.ReloadSnapshotsBuilt != 3 || s.ReloadSnapshotsShared != 0 {
		t.Errorf("built/shared = %d/%d, want 3/0", s.ReloadSnapshotsBuilt, s.ReloadSnapshotsShared)
	}
}

// TestTransferOutlivesGroupSnapshot: a chunked transfer keeps serving from
// the view it started on after commits have made the group drop and rebuild
// its snapshot, and its tokens keep verifying; its hold keeps the journal
// for the catch-up poll.
func TestTransferOutlivesGroupSnapshot(t *testing.T) {
	master, _ := chunkedMaster(t, 12, dit.WithJournalLimit(2))
	eng := NewEngine(master, WithChunkSize(5))
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	held := consumerContent(nil, res)
	for i := 0; i < 6; i++ { // well past the journal limit
		addPerson(t, master, fmt.Sprintf("churn%d", i), fmt.Sprintf("047%d", i), "1")
	}
	other, err := eng.Begin(specSerial04) // rebuilds the group's snapshot
	if err != nil {
		t.Fatal(err)
	}
	if other.Resume.CSN == res.Resume.CSN {
		t.Fatal("second member started from the stale snapshot")
	}
	for res.Resume != nil {
		if res, err = eng.ResumeReload(*res.Resume); err != nil {
			t.Fatal(err)
		}
		if res.FullReload {
			t.Fatal("token of the older transfer refused after the group rebuilt its snapshot")
		}
		held = consumerContent(held, res)
	}
	catchUp, err := eng.Poll(res.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	if catchUp.FullReload {
		t.Error("catch-up after the transfer needed another full reload: the hold did not pin the journal")
	}
	if held = consumerContent(held, catchUp); len(held) != 18 {
		t.Errorf("converged on %d entries, want 18", len(held))
	}
}
