package resync

import (
	"errors"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
)

// TestConcurrentBeginPollEnd hammers one engine with concurrent session
// lifecycles while a writer mutates the store; run with -race. It verifies
// the registry/per-session locking protocol: no torn state, and a poll
// racing an End either completes or reports ErrNoSuchSession — never a
// successful poll of a deregistered session.
func TestConcurrentBeginPollEnd(t *testing.T) {
	master := newMaster(t)
	eng := NewEngine(master)
	spec := query.MustNew("o=xyz", query.ScopeSubtree, "(objectclass=person)")

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewSource(7))
		// Add/delete pairs keep the store bounded. Snapshot reads are
		// lock-free against writers now (copy-on-write shard states), so an
		// unbounded writer would no longer be throttled by reader locks and
		// would grow the store — and every Begin's O(n) content scan — for
		// the whole run. The store-level snapshot-immutability guarantees
		// this writer used to exercise are pinned directly by
		// dit.TestSnapshotImmutableUnderCommits; here the writer only has
		// to keep commits flowing under the session lifecycle churn.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			slot := strconv.Itoa(i % 512)
			d := dn.MustParse("cn=w" + slot + ",c=us,o=xyz")
			e := entry.New(d)
			e.Put("objectclass", "person").Put("cn", "w"+slot).
				Put("sn", "w").Put("serialNumber", "04"+strconv.Itoa(i%100))
			if err := master.Add(e); err != nil {
				if !errors.Is(err, dit.ErrAlreadyExists) {
					t.Errorf("writer add: %v", err)
					return
				}
				_ = master.Delete(d)
				continue
			}
			if rng.Intn(2) == 0 {
				_ = master.Delete(d)
			}
		}
	}()

	const workers, rounds = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := eng.Begin(spec)
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				cookie := res.Cookie
				// Two goroutines poll the same session concurrently; the
				// session lock serializes them.
				var inner sync.WaitGroup
				for g := 0; g < 2; g++ {
					inner.Add(1)
					go func() {
						defer inner.Done()
						if _, err := eng.Poll(cookie); err != nil && !errors.Is(err, ErrNoSuchSession) {
							t.Errorf("poll: %v", err)
						}
					}()
				}
				// End races the polls above.
				if err := eng.End(cookie); err != nil && !errors.Is(err, ErrNoSuchSession) {
					t.Errorf("end: %v", err)
				}
				inner.Wait()
				// After End returned, the cookie must be dead.
				if _, err := eng.Poll(cookie); !errors.Is(err, ErrNoSuchSession) {
					t.Errorf("poll after end: err=%v, want ErrNoSuchSession", err)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writers.Wait()

	if n := eng.Sessions(); n != 0 {
		t.Errorf("sessions left registered = %d, want 0", n)
	}
	snap := eng.Counters().Snapshot()
	if snap.Begins != workers*rounds || snap.Ends != workers*rounds {
		t.Errorf("counters begins=%d ends=%d, want %d each", snap.Begins, snap.Ends, workers*rounds)
	}
}

// TestSlowSessionDoesNotBlockOthers pins one session mid-synchronization
// (holding its per-session lock, as a slow trimmed-journal full reload
// would) and verifies another session's poll still completes, while the
// pinned session's own poll waits for the lock. Under the old engine-global
// mutex the second poll deadlocked behind the first.
func TestSlowSessionDoesNotBlockOthers(t *testing.T) {
	master, err := dit.NewStore([]string{"o=xyz"}, dit.WithJournalLimit(4))
	if err != nil {
		t.Fatal(err)
	}
	org := entry.New(dn.MustParse("o=xyz"))
	org.Put("objectclass", "organization").Put("o", "xyz")
	if err := master.Add(org); err != nil {
		t.Fatal(err)
	}
	us := entry.New(dn.MustParse("c=us,o=xyz"))
	us.Put("objectclass", "country").Put("c", "us")
	if err := master.Add(us); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(master)
	spec := query.MustNew("o=xyz", query.ScopeSubtree, "(objectclass=person)")

	resA, err := eng.Begin(spec)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := eng.Begin(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Overflow the 4-change journal so session A needs a full reload.
	cookieB := resB.Cookie
	for i := 0; i < 8; i++ {
		addPerson(t, master, "p"+strconv.Itoa(i), "040"+strconv.Itoa(i), "1")
		// Keep B current so only A falls behind the trimmed history.
		if i == 3 {
			resB, err := eng.Poll(cookieB)
			if err != nil {
				t.Fatal(err)
			}
			cookieB = resB.Cookie
		}
	}
	resB2, err := eng.Poll(cookieB)
	if err != nil {
		t.Fatal(err)
	}
	cookieB = resB2.Cookie

	sessA := sessionOf(t, eng, resA.Cookie)
	sessA.mu.Lock() // simulate A stuck mid-full-reload

	// A's own poll must block on the session lock...
	aDone := make(chan *PollResult, 1)
	go func() {
		res, err := eng.Poll(resA.Cookie)
		if err != nil {
			t.Errorf("poll A: %v", err)
		}
		aDone <- res
	}()
	select {
	case <-aDone:
		t.Fatal("poll of locked session returned while lock held")
	case <-time.After(50 * time.Millisecond):
	}

	// ...while B's poll proceeds unimpeded.
	bDone := make(chan struct{})
	go func() {
		defer close(bDone)
		if _, err := eng.Poll(cookieB); err != nil {
			t.Errorf("poll B: %v", err)
		}
	}()
	select {
	case <-bDone:
	case <-time.After(2 * time.Second):
		t.Fatal("session B's poll blocked behind session A")
	}

	sessA.mu.Unlock()
	select {
	case res := <-aDone:
		if res != nil && !res.FullReload {
			t.Error("session A expected a full reload after journal trim")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("session A's poll never completed")
	}

	snap := eng.Counters().Snapshot()
	if snap.FullReloads < 1 {
		t.Errorf("FullReloads = %d, want >= 1", snap.FullReloads)
	}
	if master.JournalTrimmed() == 0 {
		t.Error("store reported no trimmed journal records")
	}
}

// TestConcurrentGroupJoinLeaveDemotion hammers the content-group fan-out
// layer under -race: workers churn Begin/Persist/Poll/End across several
// specs (so groups form and tear down repeatedly) while a writer drives
// update cycles, and deliberately slow subscribers force the coalesce →
// demote slow-consumer path. The invariants: no data race, every torn-down
// stream's channel closes, and the registries drain to empty.
func TestConcurrentGroupJoinLeaveDemotion(t *testing.T) {
	master := newMaster(t)
	// Tiny queue, hair-trigger demotion: two consecutive full-queue cycles
	// close the stream.
	eng := NewEngine(master)
	eng.persistQueueCap, eng.demoteAfter = 1, 2
	specs := []query.Query{
		query.MustNew("o=xyz", query.ScopeSubtree, "(objectclass=person)"),
		query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)"),
		query.MustNew("o=xyz", query.ScopeSubtree, "(&(objectclass=person)(serialnumber=04*))", "cn"),
	}

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewSource(11))
		// Churn within a rotating window so the store stays bounded: with
		// lock-free snapshot reads the writer is never throttled by the
		// readers, and an unbounded add stream would grow every content
		// scan and classification interval for the whole run.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			slot := strconv.Itoa(i % 256)
			d := dn.MustParse("cn=g" + slot + ",c=us,o=xyz")
			e := entry.New(d)
			e.Put("objectclass", "person").Put("cn", "g"+slot).
				Put("sn", "g").Put("serialNumber", "04"+strconv.Itoa(i%100))
			if err := master.Add(e); err != nil {
				if !errors.Is(err, dit.ErrAlreadyExists) {
					t.Errorf("writer add: %v", err)
					return
				}
				_ = master.Delete(d)
				continue
			}
			if rng.Intn(3) == 0 {
				_ = master.Delete(d)
			}
		}
	}()

	const workers, rounds = 6, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < rounds; i++ {
				spec := specs[rng.Intn(len(specs))]
				res, err := eng.Begin(spec)
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				cookie := res.Cookie
				switch rng.Intn(3) {
				case 0:
					// Healthy persist consumer: drain a few batches, close.
					sub, err := eng.Persist(cookie)
					if err != nil {
						t.Errorf("persist: %v", err)
						return
					}
					timeout := time.After(20 * time.Millisecond)
				drain:
					for {
						select {
						case b, ok := <-sub.Updates:
							if !ok {
								break drain
							}
							cookie = b.Cookie
						case <-timeout:
							break drain
						}
					}
					sub.Close()
				case 1:
					// Slow consumer: subscribe, then drain with exponentially
					// growing gaps. Demotion fires only when the 1-deep queue
					// stays full across consecutive update cycles, i.e. when
					// the consumer's drain gap exceeds a few cycle periods —
					// a fixed gap would bake in an assumption about how fast
					// the contended broadcaster cycles, so the gap doubles
					// until it is slower than any plausible cycle rate and
					// the engine must demote the stream by closing the
					// channel.
					sub, err := eng.Persist(cookie)
					if err != nil {
						t.Errorf("persist: %v", err)
						return
					}
					deadline := time.Now().Add(15 * time.Second)
					gap := 2 * time.Millisecond
					closed := false
					for !closed {
						if time.Now().After(deadline) {
							t.Error("slow subscriber never demoted")
							break
						}
						time.Sleep(gap)
						if gap < time.Second {
							gap *= 2
						}
						select {
						case _, ok := <-sub.Updates:
							closed = !ok
						default:
						}
					}
					sub.Close()
				default:
					// Plain poller.
					if res, err := eng.Poll(cookie); err == nil {
						cookie = res.Cookie
					} else if !errors.Is(err, ErrNoSuchSession) {
						t.Errorf("poll: %v", err)
					}
				}
				if err := eng.End(cookie); err != nil && !errors.Is(err, ErrNoSuchSession) {
					t.Errorf("end: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	writers.Wait()

	if n := eng.Sessions(); n != 0 {
		t.Errorf("sessions left registered = %d, want 0", n)
	}
	if n := eng.Groups(); n != 0 {
		t.Errorf("groups left registered = %d, want 0", n)
	}
	snap := eng.Counters().Snapshot()
	if snap.GroupJoins != workers*rounds || snap.GroupLeaves != workers*rounds {
		t.Errorf("group joins=%d leaves=%d, want %d each",
			snap.GroupJoins, snap.GroupLeaves, workers*rounds)
	}
	if snap.SlowDemotions == 0 {
		t.Error("no slow-consumer demotions recorded")
	}
	if snap.CoalescedCycles < snap.SlowDemotions {
		t.Errorf("coalesced=%d < demotions=%d: demotion without prior coalescing",
			snap.CoalescedCycles, snap.SlowDemotions)
	}
}

// sessionOf resolves a cookie to its registered session for white-box
// assertions on session and group state.
func sessionOf(t *testing.T, e *Engine, cookie string) *session {
	t.Helper()
	id, _ := splitCookie(cookie)
	e.mu.Lock()
	defer e.mu.Unlock()
	sess, ok := e.sessions[id]
	if !ok {
		t.Fatalf("no session for cookie %q", cookie)
	}
	return sess
}
