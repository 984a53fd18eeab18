package supervisor

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"filterdir/internal/chaos"
	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/ldapnet"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
	"filterdir/internal/resync/resynctest"
)

// newMasterStore builds a small master directory with entries matching the
// test spec (serialnumber=04*).
func newMasterStore(t *testing.T) *dit.Store {
	t.Helper()
	st, err := dit.NewStore([]string{"o=xyz"}, dit.WithIndexes("serialnumber"))
	if err != nil {
		t.Fatal(err)
	}
	org := entry.New(dn.MustParse("o=xyz"))
	org.Put("objectclass", "organization").Put("o", "xyz")
	if err := st.Add(org); err != nil {
		t.Fatal(err)
	}
	us := entry.New(dn.MustParse("c=us,o=xyz"))
	us.Put("objectclass", "country").Put("c", "us")
	if err := st.Add(us); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := st.Add(personEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func personEntry(i int) *entry.Entry {
	e := entry.New(dn.MustParse(fmt.Sprintf("cn=p%d,c=us,o=xyz", i)))
	e.Put("objectclass", "person", "inetOrgPerson").
		Put("cn", fmt.Sprintf("p%d", i)).Put("sn", "x").
		Put("serialNumber", fmt.Sprintf("04%02d", i))
	return e
}

// harness bundles a chaos-wrapped master and its sync engine counters.
type harness struct {
	store   *dit.Store
	backend *ldapnet.StoreBackend
	srv     *ldapnet.Server
	inj     *chaos.Injector
	spec    query.Query
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	st := newMasterStore(t)
	backend := ldapnet.NewStoreBackend(st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(chaos.Plan{}) // faults off until the test arms them
	srv := ldapnet.ServeListener(inj.Listener(ln), backend)
	t.Cleanup(func() { _ = srv.Close() })
	return &harness{
		store:   st,
		backend: backend,
		srv:     srv,
		inj:     inj,
		spec:    query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)"),
	}
}

func (h *harness) config(t *testing.T) Config {
	t.Helper()
	return Config{
		Master:       h.srv.Addr(),
		Spec:         h.spec,
		PollInterval: 3 * time.Millisecond,
		BackoffBase:  time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		DialTimeout:  2 * time.Second,
		Seed:         1,
		Dial:         h.inj.Dial(nil),
		Logf:         t.Logf,
	}
}

func startSupervisor(t *testing.T, cfg Config) *Supervisor {
	t.Helper()
	rep, err := replica.NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	sup, err := New(cfg, rep)
	if err != nil {
		t.Fatal(err)
	}
	sup.Start()
	t.Cleanup(func() { _ = sup.Stop() })
	return sup
}

func waitSynced(t *testing.T, sup *Supervisor) {
	t.Helper()
	select {
	case <-sup.Synced():
	case <-time.After(10 * time.Second):
		t.Fatalf("supervisor never finished its first exchange (state %s)", sup.State())
	}
}

func waitConverged(t *testing.T, h *harness, sup *Supervisor, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ok, why := resynctest.Converged(h.store, sup.rep.Store(), h.spec)
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica did not converge: %s", why)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitCounter(t *testing.T, what string, timeout time.Duration, load func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d", what, load(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func mutate(t *testing.T, st *dit.Store, round int) {
	t.Helper()
	// Modify an existing person, add a new one, delete another — all
	// inside the replicated content.
	d := dn.MustParse("cn=p1,c=us,o=xyz")
	if err := st.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{fmt.Sprintf("r%d", round)}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(personEntry(100 + round)); err != nil {
		t.Fatal(err)
	}
	if round > 0 {
		if err := st.Delete(dn.MustParse(fmt.Sprintf("cn=p%d,c=us,o=xyz", 99+round))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConvergesUnderDropsAndRestart is the acceptance scenario: with
// connection drops injected every N I/O operations and one forced replica
// restart mid-session, the replica converges to master content using
// resume-polls — zero full reloads and exactly one Begin on the master,
// across both supervisor incarnations.
func TestConvergesUnderDropsAndRestart(t *testing.T) {
	h := newHarness(t)
	stateDir := t.TempDir()
	cfg := h.config(t)
	cfg.StateDir = stateDir

	sup := startSupervisor(t, cfg)
	waitSynced(t, sup)

	// Arm the chaos plan only after the initial Begin completed, so the
	// "one Begin" assertion is deterministic.
	h.inj.SetPlan(chaos.Plan{Seed: 7, DropEveryNOps: 30})

	for round := 0; round < 4; round++ {
		mutate(t, h.store, round)
		time.Sleep(15 * time.Millisecond)
	}
	// Make sure drops actually hit live exchanges before the restart.
	waitCounter(t, "reconnects", 10*time.Second,
		func() int64 { return sup.Counters().Reconnects.Load() }, 1)
	waitConverged(t, h, sup, 15*time.Second)

	// Forced restart mid-session: stop (checkpointing), mutate while the
	// replica is down, then bring up a fresh incarnation on the same
	// state directory.
	if err := sup.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	mutate(t, h.store, 4)

	sup2 := startSupervisor(t, cfg)
	waitSynced(t, sup2)
	if got := sup2.Counters().Resumes.Load(); got < 1 {
		t.Errorf("restarted supervisor resumed %d times, want >= 1", got)
	}
	mutate(t, h.store, 5)
	waitConverged(t, h, sup2, 15*time.Second)

	eng := h.backend.Engine.Counters().Snapshot()
	if eng.Begins != 1 {
		t.Errorf("master begins = %d, want exactly 1 (restart + drops must resume, not re-begin)", eng.Begins)
	}
	if eng.FullReloads != 0 {
		t.Errorf("master full reloads = %d, want 0", eng.FullReloads)
	}
	if eng.Polls < 2 {
		t.Errorf("master polls = %d, want >= 2 (resume-polls drive recovery)", eng.Polls)
	}
	if drops := h.inj.Stats().Drops; drops == 0 {
		t.Error("chaos injected no drops; the scenario did not exercise failure")
	}
	if got := sup2.Cookie(); got == "" {
		t.Error("supervisor lost its session cookie")
	}
}

// TestStaleSessionReBegins verifies the typed wire error path: when the
// master forgets the session, the supervisor re-Begins instead of
// retrying the dead cookie or crashing.
func TestStaleSessionReBegins(t *testing.T) {
	h := newHarness(t)
	sup := startSupervisor(t, h.config(t))
	waitSynced(t, sup)

	if err := h.backend.Engine.End(sup.Cookie()); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, "stale sessions", 10*time.Second,
		func() int64 { return sup.Counters().StaleSessions.Load() }, 1)
	waitCounter(t, "begins", 10*time.Second,
		func() int64 { return sup.Counters().Begins.Load() }, 2)

	mutate(t, h.store, 0)
	waitConverged(t, h, sup, 10*time.Second)
	if eng := h.backend.Engine.Counters().Snapshot(); eng.Begins != 2 {
		t.Errorf("master begins = %d, want 2 (initial + re-begin)", eng.Begins)
	}
}

// TestPatchMissReBegins: a patch names an entry the replica does not hold —
// here because the entry was dropped behind the session's back, in the field
// because a redelivered interval spans a move-out the replica had already
// applied. The patch must not create a partial entry: the apply fails with
// the typed error, the supervisor ends its session, Begins anew, and the full
// transfer brings the entry back whole.
func TestPatchMissReBegins(t *testing.T) {
	for _, mode := range []Mode{ModePoll, ModePersist} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			h := newHarness(t)
			cfg := h.config(t)
			cfg.Mode = mode
			sup := startSupervisor(t, cfg)
			waitSynced(t, sup)

			d := dn.MustParse("cn=p1,c=us,o=xyz")
			if err := sup.rep.Store().RemoveAny(d); err != nil {
				t.Fatal(err)
			}
			if err := h.store.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{"patched"}}}); err != nil {
				t.Fatal(err)
			}
			waitCounter(t, "patch misses", 10*time.Second, sup.Counters().PatchMisses.Load, 1)
			waitCounter(t, "begins", 10*time.Second, sup.Counters().Begins.Load, 2)
			waitConverged(t, h, sup, 10*time.Second)
			got, ok := sup.rep.Store().Get(d)
			if !ok || got.First("sn") != "patched" || got.First("cn") != "p1" || !got.Has("serialNumber") {
				t.Errorf("after the re-Begin the replica holds %v, want the whole entry", got)
			}
			if n := sup.Counters().PatchMisses.Load(); n != 1 {
				t.Errorf("patch misses = %d, want 1", n)
			}
			eng := h.backend.Engine.Counters().Snapshot()
			if eng.Begins != 2 || eng.Ends != 1 {
				t.Errorf("master begins/ends = %d/%d, want 2/1 (the given-up session is ended, not left behind)", eng.Begins, eng.Ends)
			}
			if n := h.backend.Engine.Sessions(); n != 1 {
				t.Errorf("master holds %d sessions, want 1", n)
			}
		})
	}
}

// TestPersistFallbackToPoll verifies the stream steady state: pushed
// batches apply while the stream lives, and a dead stream falls back to a
// resume-poll without losing updates or reloading.
func TestPersistFallbackToPoll(t *testing.T) {
	h := newHarness(t)
	cfg := h.config(t)
	cfg.Mode = ModePersist
	sup := startSupervisor(t, cfg)
	waitSynced(t, sup)

	mutate(t, h.store, 0)
	waitCounter(t, "stream batches", 10*time.Second,
		func() int64 { return sup.Counters().StreamBatches.Load() }, 1)

	// Sever everything briefly: the next pushed batch hits a dropped
	// write, the stream dies, and the supervisor falls back to polling
	// before rebuilding the stream. Faults only fire on I/O, so mutate
	// after arming the plan to generate stream traffic.
	h.inj.SetPlan(chaos.Plan{DropEveryNOps: 1})
	mutate(t, h.store, 1)
	waitCounter(t, "fallbacks", 10*time.Second,
		func() int64 { return sup.Counters().Fallbacks.Load() }, 1)
	h.inj.SetPlan(chaos.Plan{})

	mutate(t, h.store, 2)
	waitConverged(t, h, sup, 10*time.Second)
	if eng := h.backend.Engine.Counters().Snapshot(); eng.Begins != 1 || eng.FullReloads != 0 {
		t.Errorf("master begins=%d full-reloads=%d, want 1 and 0", eng.Begins, eng.FullReloads)
	}
}

// TestRefusedWindowBacksOff verifies capped backoff against a master whose
// host refuses connections for a while.
func TestRefusedWindowBacksOff(t *testing.T) {
	h := newHarness(t)
	h.inj.RefuseFor(150 * time.Millisecond)
	sup := startSupervisor(t, h.config(t))
	waitSynced(t, sup)
	c := sup.Counters().Snapshot()
	if c.BackoffWaits == 0 {
		t.Error("supervisor never backed off during the refused window")
	}
	if c.Begins != 1 {
		t.Errorf("begins = %d, want 1", c.Begins)
	}
	waitConverged(t, h, sup, 10*time.Second)
}

// TestCheckpointSurvivesSpecChange: a state directory written for one spec
// must not be resumed for a different one.
func TestCheckpointSurvivesSpecChange(t *testing.T) {
	h := newHarness(t)
	stateDir := t.TempDir()
	cfg := h.config(t)
	cfg.StateDir = stateDir
	sup := startSupervisor(t, cfg)
	waitSynced(t, sup)
	if err := sup.Stop(); err != nil {
		t.Fatal(err)
	}

	cfg2 := cfg
	cfg2.Spec = query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=05*)")
	rep, err := replica.NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	sup2, err := New(cfg2, rep)
	if err != nil {
		t.Fatal(err)
	}
	if got := sup2.Cookie(); got != "" {
		t.Errorf("spec-mismatched checkpoint restored cookie %q, want fresh start", got)
	}
}

// refusingBackend serves the master store and records the cookie every poll
// presents; once armed it appends to the next poll answer that carries
// updates one the replica refuses (a retain action, which only the
// incomplete-history mode may send).
type refusingBackend struct {
	*ldapnet.StoreBackend
	mu        sync.Mutex
	armed     bool
	presented []string
	spoiled   int // index in presented of the spoiled poll, -1 before it
}

func (b *refusingBackend) ReSyncPoll(cookie string) (*resync.PollResult, error) {
	res, err := b.StoreBackend.ReSyncPoll(cookie)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.presented = append(b.presented, cookie)
	if err != nil || !b.armed || len(res.Updates) == 0 {
		return res, err
	}
	b.armed = false
	b.spoiled = len(b.presented) - 1
	spoiled := *res
	spoiled.Enc = nil
	spoiled.Updates = append(append([]resync.Update(nil), res.Updates...),
		resync.Update{Action: resync.ActionRetain, DN: res.Updates[0].DN})
	return &spoiled, nil
}

// TestRefusedUpdateKeepsSyncPoint: an exchange whose updates the replica
// refuses must not move the supervisor's sync point — the next request
// presents the cookie it held before, so the supplier re-sends what never
// landed, and the replica converges.
func TestRefusedUpdateKeepsSyncPoint(t *testing.T) {
	h := newHarness(t)
	rb := &refusingBackend{StoreBackend: ldapnet.NewStoreBackend(h.store), spoiled: -1}
	srv, err := ldapnet.Serve("127.0.0.1:0", rb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	cfg := h.config(t)
	cfg.Master = srv.Addr()
	cfg.Dial = nil
	sup := startSupervisor(t, cfg)
	waitSynced(t, sup)

	rb.mu.Lock()
	rb.armed = true
	rb.mu.Unlock()
	mutate(t, h.store, 0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		rb.mu.Lock()
		done := rb.spoiled >= 0 && len(rb.presented) > rb.spoiled+1
		var before, after string
		if done {
			before, after = rb.presented[rb.spoiled], rb.presented[rb.spoiled+1]
		}
		rb.mu.Unlock()
		if done {
			if after != before {
				t.Fatalf("poll after the refused exchange presented %q, want the cookie held before it, %q", after, before)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no poll followed the refused exchange")
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitConverged(t, h, sup, 10*time.Second)
	if got := sup.Counters().FullReloads.Load(); got != 0 {
		t.Errorf("full reloads = %d, want 0: the re-sent updates must land incrementally", got)
	}
}

// TestStopBeforeStart: a supervisor that was built, its journal open, and
// never started stops without hanging and releases the journal — what a tier
// does with the link of an adoption it could not record.
func TestStopBeforeStart(t *testing.T) {
	s, err := newSupervisor(offlineConfig(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	stopped := make(chan error, 1)
	go func() { stopped <- s.Stop() }()
	select {
	case err := <-stopped:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung on a supervisor that was never started")
	}
	if _, err := s.journal.Commit(false, nil, "{}"); err == nil {
		t.Error("journal still open after Stop")
	}
}
