package cascade

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"filterdir/internal/chaos"
	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/ldapnet"
	"filterdir/internal/persist"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
	"filterdir/internal/resync/resynctest"
	"filterdir/internal/supervisor"
)

// newMasterStore builds a master directory with entries inside the tier
// spec (serialnumber=04*) and outside it (serialnumber=05*).
func newMasterStore(t testing.TB) *dit.Store {
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
		if err := st.Add(personEntry("04", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := st.Add(personEntry("05", i)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func personEntry(prefix string, i int) *entry.Entry {
	e := entry.New(dn.MustParse(fmt.Sprintf("cn=%s-p%d,c=us,o=xyz", prefix, i)))
	e.Put("objectclass", "person", "inetOrgPerson").
		Put("cn", fmt.Sprintf("%s-p%d", prefix, i)).Put("sn", "x").
		Put("serialNumber", fmt.Sprintf("%s%02d", prefix, i))
	return e
}

// mutate touches the master inside the tier spec: modify, add, delete.
func mutate(t *testing.T, st *dit.Store, round int) {
	t.Helper()
	d := dn.MustParse("cn=04-p1,c=us,o=xyz")
	if err := st.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{fmt.Sprintf("r%d", round)}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(personEntry("04", 100+round)); err != nil {
		t.Fatal(err)
	}
	if round > 0 {
		if err := st.Delete(dn.MustParse(fmt.Sprintf("cn=04-p%d,c=us,o=xyz", 99+round))); err != nil {
			t.Fatal(err)
		}
	}
}

// harness is a wire-served master plus the tier spec set.
type harness struct {
	store    *dit.Store
	backend  *ldapnet.StoreBackend
	srv      *ldapnet.Server
	inj      *chaos.Injector // wraps the master link (listener + tier dials)
	tierSpec query.Query
}

func newHarness(t testing.TB, opts ...resync.EngineOption) *harness {
	t.Helper()
	st := newMasterStore(t)
	backend := ldapnet.NewStoreBackend(st, opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(chaos.Plan{})
	srv := ldapnet.ServeListener(inj.Listener(ln), backend)
	t.Cleanup(func() { _ = srv.Close() })
	return &harness{
		store:    st,
		backend:  backend,
		srv:      srv,
		inj:      inj,
		tierSpec: query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)"),
	}
}

// tierConfig builds a fast-cadence tier config against the harness master.
func (h *harness) tierConfig(t testing.TB) Config {
	t.Helper()
	return Config{
		Upstream:     h.srv.Addr(),
		Specs:        []query.Query{h.tierSpec},
		PollInterval: 3 * time.Millisecond,
		BackoffBase:  time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		DialTimeout:  2 * time.Second,
		Seed:         1,
		Dial:         h.inj.Dial(nil),
		Logf:         t.Logf,
	}
}

// startTier builds, starts and serves a tier, returning it with its server.
func startTier(t *testing.T, cfg Config, masterURL string) (*Tier, *ldapnet.Server) {
	t.Helper()
	tier, srv, _ := startWatchedTier(t, cfg, masterURL)
	return tier, srv
}

// askedWatcher counts the times the server asks the tier whether a filters
// watch can be answered: a watch that has landed has been asked once.
type askedWatcher struct {
	ldapnet.FilterWatcher
	asked atomic.Int64
}

func (w *askedWatcher) Ready(q query.Query) (bool, <-chan struct{}) {
	w.asked.Add(1)
	return w.FilterWatcher.Ready(q)
}

// startWatchedTier is startTier with the server's filters-watch checks
// counted.
func startWatchedTier(t *testing.T, cfg Config, masterURL string) (*Tier, *ldapnet.Server, *askedWatcher) {
	t.Helper()
	tier, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tier.Start()
	t.Cleanup(func() { _ = tier.Stop() })
	backend := ldapnet.NewCascadeBackend(tier.Replica(), tier, masterURL)
	watcher := &askedWatcher{FilterWatcher: tier}
	backend.FilterWatcher = watcher
	srv, err := ldapnet.Serve("127.0.0.1:0", backend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return tier, srv, watcher
}

// holdDials makes the tier's link dials wait until the returned open is
// called, so the tier has loaded nothing until then. Register open with
// t.Cleanup after starting the tier: it must run before the tier stops, as its
// link may still be dialling.
func holdDials(cfg *Config) (open func()) {
	release := make(chan struct{})
	var once sync.Once
	dial := cfg.Dial
	cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		<-release
		return dial(addr, timeout)
	}
	return func() { once.Do(func() { close(release) }) }
}

// startLeaf attaches a leaf supervisor to upstream (with optional fallback).
func startLeaf(t *testing.T, spec query.Query, upstream, fallback string, mode supervisor.Mode) (*supervisor.Supervisor, *replica.FilterReplica) {
	t.Helper()
	rep, err := replica.NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	sup, err := supervisor.New(supervisor.Config{
		Master:       upstream,
		Fallback:     fallback,
		Spec:         spec,
		Mode:         mode,
		PollInterval: 3 * time.Millisecond,
		BackoffBase:  time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		DialTimeout:  2 * time.Second,
		Seed:         2,
		Logf:         t.Logf,
	}, rep)
	if err != nil {
		t.Fatal(err)
	}
	sup.Start()
	t.Cleanup(func() { _ = sup.Stop() })
	return sup, rep
}

func waitSynced(t *testing.T, sup *supervisor.Supervisor) {
	t.Helper()
	select {
	case <-sup.Synced():
	case <-time.After(10 * time.Second):
		t.Fatalf("supervisor never finished its first exchange (state %s, target %s)", sup.State(), sup.Target())
	}
}

// waitConverged polls until the replica store matches the master selection.
func waitConverged(t *testing.T, master, rep *dit.Store, spec query.Query, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ok, why := resynctest.Converged(master, rep, spec)
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

// TestAdmissionGate exercises the containment gate directly: contained
// specs (equality, narrower prefix, attribute subset) are admitted;
// disjoint and wider specs are rejected with the typed sentinel.
func TestAdmissionGate(t *testing.T) {
	h := newHarness(t)
	tier, _ := startTier(t, h.tierConfig(t), "ldap://master")

	admit := []string{
		"(serialnumber=04*)",                        // identical
		"(serialnumber=041*)",                       // narrower prefix
		"(&(serialnumber=04*)(objectclass=person))", // extra conjunct
	}
	for _, f := range admit {
		q := query.MustNew("o=xyz", query.ScopeSubtree, f)
		if err := tier.Admit(q); err != nil {
			t.Errorf("Admit(%s) = %v, want nil", f, err)
		}
	}
	reject := []string{
		"(serialnumber=05*)", // disjoint
		"(objectclass=*)",    // wider
	}
	for _, f := range reject {
		q := query.MustNew("o=xyz", query.ScopeSubtree, f)
		err := tier.Admit(q)
		if !errors.Is(err, ldapnet.ErrNotContained) {
			t.Errorf("Admit(%s) = %v, want ErrNotContained", f, err)
		}
	}
	c := tier.Counters()
	if c.Admitted.Load() != int64(len(admit)) || c.Rejected.Load() != int64(len(reject)) {
		t.Errorf("admitted=%d rejected=%d, want %d and %d", c.Admitted.Load(), c.Rejected.Load(), len(admit), len(reject))
	}

	// The attrs-subset rule also applies over the wire mapping: a rejected
	// Begin surfaces as a referral result that unwraps to the sentinel.
	re := &ldapnet.ResultError{Code: 10 /* referral */}
	if !errors.Is(re, ldapnet.ErrNotContained) {
		t.Error("ResultError(referral) does not unwrap to ErrNotContained")
	}
}

// TestAdmissionMultiValued: an entry carries several objectclass values, so
// (&(objectclass=person)(objectclass=top)) selects every person, and a tier
// holding one serial number must refuse it rather than serve it a subset.
func TestAdmissionMultiValued(t *testing.T) {
	h := newHarness(t)
	cfg := h.tierConfig(t)
	cfg.Specs = []query.Query{query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=000001)")}
	tier, _ := startTier(t, cfg, "ldap://master")
	q := query.MustNew("o=xyz", query.ScopeSubtree, "(&(objectclass=person)(objectclass=top))")
	if err := tier.Admit(q); !errors.Is(err, ldapnet.ErrNotContained) {
		t.Errorf("Admit(%s) = %v, want ErrNotContained", q.FilterString(), err)
	}
}

// TestPropagationThroughTier is the core cascade scenario: updates applied
// at the master propagate through the mid-tier to leaves, and a leaf
// observing the mid-tier ends byte-equivalent to one attached directly to
// the master. The master sees exactly one Begin — the tier's — however
// many leaves attach downstream.
func TestPropagationThroughTier(t *testing.T) {
	h := newHarness(t)
	tier, tierSrv := startTier(t, h.tierConfig(t), "ldap://"+h.srv.Addr())

	fullSpec := h.tierSpec
	subSpec := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=040*)")

	supFull, repFull := startLeaf(t, fullSpec, tierSrv.Addr(), h.srv.Addr(), supervisor.ModePoll)
	supSub, repSub := startLeaf(t, subSpec, tierSrv.Addr(), h.srv.Addr(), supervisor.ModePoll)
	supDirect, repDirect := startLeaf(t, fullSpec, h.srv.Addr(), "", supervisor.ModePoll)
	waitSynced(t, supFull)
	waitSynced(t, supSub)
	waitSynced(t, supDirect)

	for round := 0; round < 4; round++ {
		mutate(t, h.store, round)
		time.Sleep(10 * time.Millisecond)
	}

	waitConverged(t, h.store, tier.Replica().Store(), h.tierSpec, 15*time.Second)
	waitConverged(t, h.store, repFull.Store(), fullSpec, 15*time.Second)
	waitConverged(t, h.store, repSub.Store(), subSpec, 15*time.Second)
	waitConverged(t, h.store, repDirect.Store(), fullSpec, 15*time.Second)

	// Leaf-through-mid is indistinguishable from direct attachment: both
	// converged to the same master selection, so their stores agree.
	if ok, why := resynctest.Converged(repDirect.Store(), repFull.Store(), fullSpec); !ok {
		t.Errorf("tier-attached leaf differs from direct-attached leaf: %s", why)
	}

	if begins := h.backend.Engine.Counters().Snapshot().Begins; begins != 2 {
		// The tier and the direct leaf; the two tier-attached leaves must
		// not have reached the master.
		t.Errorf("master begins = %d, want 2 (tier + direct leaf only)", begins)
	}
	if begins := tier.SyncCounters().Snapshot().Begins; begins != 2 {
		t.Errorf("tier begins = %d, want 2 (both attached leaves)", begins)
	}
	if fb := supFull.Counters().UpstreamFallbacks.Load() + supSub.Counters().UpstreamFallbacks.Load(); fb != 0 {
		t.Errorf("tier-attached leaves diverted %d times, want 0", fb)
	}
	c := tier.Counters()
	if c.UpstreamBatches.Load() == 0 || c.UpstreamUpdates.Load() == 0 {
		t.Errorf("tier recorded no upstream activity: %s", c)
	}
	if c.Rebroadcast.Count() == 0 {
		t.Errorf("tier recorded no apply→rebroadcast latency samples")
	}
	if d := c.TierDepth.Load(); d != 1 {
		t.Errorf("tier depth = %d, want 1", d)
	}
	// The session gauge is read off the engine when the counters are: the
	// two attached leaves now, one fewer as soon as a leaf's session ends.
	if n := c.DownstreamSessions.Load(); n != 2 {
		t.Errorf("downstream sessions = %d, want 2 (both attached leaves)", n)
	}
	if err := supSub.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := tier.Engine().End(supSub.Cookie()); err != nil {
		t.Fatal(err)
	}
	if got := tier.Counters().DownstreamSessions.Load(); got != 1 {
		t.Errorf("downstream sessions after one leaf's session ended = %d, want 1", got)
	}
}

// TestRejectionDivertsToFallback: a leaf whose spec the tier cannot prove
// contained must end up synchronized against the fallback master, its
// filters watch parked at the tier: a tier that never comes to cover the spec
// is never probed again. The Begin is the one admission decision; the watch,
// however often the tier asks about it again, is none.
func TestRejectionDivertsToFallback(t *testing.T) {
	h := newHarness(t)
	tier, tierSrv, watcher := startWatchedTier(t, h.tierConfig(t), "ldap://"+h.srv.Addr())

	outside := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=05*)")
	sup, rep := startLeaf(t, outside, tierSrv.Addr(), h.srv.Addr(), supervisor.ModePoll)

	waitSynced(t, sup)
	if got := sup.Target(); got != h.srv.Addr() {
		t.Errorf("leaf target = %s, want fallback master %s", got, h.srv.Addr())
	}
	// The rejected Begin, then the watch the tier parks.
	waitCounter(t, "filters-watch checks", 10*time.Second, watcher.asked.Load, 1)
	mutate(t, h.store, 0)
	if err := h.store.Add(personEntry("05", 50)); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, h.store, rep.Store(), outside, 10*time.Second)

	if got := sup.Counters().UpstreamFallbacks.Load(); got != 1 {
		t.Errorf("upstream fallbacks = %d, want 1 (a parked watch never probes)", got)
	}
	if got := tier.Counters().Rejected.Load(); got != 1 {
		t.Errorf("tier rejected = %d, want 1 (the Begin)", got)
	}
	if begins := tier.SyncCounters().Snapshot().Begins; begins != 0 {
		t.Errorf("tier engine begins = %d, want 0 (rejected spec must never establish)", begins)
	}
}

// TestDivertedLeafWaitsForLoadedLink: a leaf diverted by a stale session at a
// tier that admits its spec stays on the fallback master while the tier's
// covering link is held back before its first exchange — admission alone
// would hand the leaf a tier with nothing loaded. Once that exchange lands
// the tier answers the leaf's watch, and the leaf moves back without a
// second Begin at the master.
func TestDivertedLeafWaitsForLoadedLink(t *testing.T) {
	h := newHarness(t)
	cfg := h.tierConfig(t)
	open := holdDials(&cfg)
	tier, tierSrv, watcher := startWatchedTier(t, cfg, "ldap://"+h.srv.Addr())
	t.Cleanup(open) // before the tier stops: its link may still be dialling

	// The leaf's durable state names a session the tier does not hold.
	inside := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=040*)")
	stateDir := t.TempDir()
	note, err := json.Marshal(map[string]string{
		"cookie": "sess-999@1", "addr": tierSrv.Addr(), "spec": inside.Normalize().Key()})
	if err != nil {
		t.Fatal(err)
	}
	j, err := persist.Dir{Path: stateDir}.Journal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Commit(false, nil, string(note)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := replica.NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	sup, err := supervisor.New(supervisor.Config{
		Master:       tierSrv.Addr(),
		Fallback:     h.srv.Addr(),
		Spec:         inside,
		StateDir:     stateDir,
		PollInterval: 3 * time.Millisecond,
		BackoffBase:  time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		DialTimeout:  2 * time.Second,
		Seed:         4,
		Logf:         t.Logf,
	}, rep)
	if err != nil {
		t.Fatal(err)
	}
	sup.Start()
	t.Cleanup(func() { _ = sup.Stop() })

	waitSynced(t, sup)
	waitCounter(t, "stale sessions", 10*time.Second,
		func() int64 { return sup.Counters().StaleSessions.Load() }, 1)
	// The watch has landed once the tier has been asked about it; the tier
	// admits the spec but has loaded nothing, so the watch parks.
	waitCounter(t, "filters-watch checks", 10*time.Second, watcher.asked.Load, 1)
	waitConverged(t, h.store, rep.Store(), inside, 10*time.Second)
	// A watch answered now would move the leaf within a poll tick: five more
	// exchanges at the fallback give it the time.
	held := sup.Exchanges()
	waitCounter(t, "exchanges while the link is held", 10*time.Second, sup.Exchanges, held+5)
	if got := sup.Target(); got != h.srv.Addr() {
		t.Fatalf("leaf target = %s while the tier's link is unloaded, want the fallback %s", got, h.srv.Addr())
	}
	if got := tier.SyncCounters().Snapshot().Begins; got != 0 {
		t.Fatalf("tier begins = %d while its link is unloaded, want 0", got)
	}
	if got := tier.Replica().EntryCount(); got != 0 {
		t.Fatalf("tier holds %d entries before its link's first exchange", got)
	}

	open()
	deadline := time.Now().Add(10 * time.Second)
	for sup.Target() != tierSrv.Addr() {
		if time.Now().After(deadline) {
			t.Fatalf("leaf never moved back to the tier (target %s)", sup.Target())
		}
		time.Sleep(5 * time.Millisecond)
	}
	mutate(t, h.store, 0)
	waitConverged(t, h.store, rep.Store(), inside, 10*time.Second)
	if got := h.backend.Engine.Counters().Snapshot().Begins; got != 2 {
		t.Errorf("master begins = %d, want 2 (the leaf's one and the tier link's)", got)
	}
	if got := tier.SyncCounters().Snapshot().Begins; got != 1 {
		t.Errorf("tier begins = %d, want 1", got)
	}
	if got := sup.Counters().UpstreamFallbacks.Load(); got != 1 {
		t.Errorf("upstream fallbacks = %d, want 1", got)
	}
}

// TestReadyNeedsAdmissionAndALoadedLink: Ready says yes only to a spec the
// tier admits whose covering link has finished its first exchange. The tier's
// one link is held at its dial, so every spec is first asked while nothing is
// loaded; the channel Ready hands back closes at the link's first sync, and
// from then on the specs the tier admits are ready and the one outside is not.
func TestReadyNeedsAdmissionAndALoadedLink(t *testing.T) {
	h := newHarness(t)
	cfg := h.tierConfig(t)
	open := holdDials(&cfg)
	tier, _ := startTier(t, cfg, "ldap://"+h.srv.Addr())
	t.Cleanup(open) // before the tier stops: its link may still be dialling

	cases := []struct {
		name     string
		spec     query.Query
		admitted bool
	}{
		{"link spec", h.tierSpec, true},
		{"narrower", query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=040*)"), true},
		{"outside", query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=05*)"), false},
	}
	var changed <-chan struct{}
	t.Run("held", func(t *testing.T) {
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				var ready bool
				if ready, changed = tier.Ready(c.spec); ready {
					t.Error("ready before the link's first exchange")
				}
			})
		}
	})

	open()
	waitSynced(t, tier.Supervisors()[0])
	select {
	case <-changed:
	case <-time.After(10 * time.Second):
		t.Fatal("the link's first sync did not close the channel Ready handed back")
	}
	t.Run("loaded", func(t *testing.T) {
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				if ready, _ := tier.Ready(c.spec); ready != c.admitted {
					t.Errorf("ready = %v, want %v", ready, c.admitted)
				}
			})
		}
	})
}

// TestReadyDecidesNoAdmission: asking Ready — as the server does for every
// parked filters watch at each link's first sync — is no admission decision.
// It moves none of the admission counters and never reaches the admission
// observer (the adaptive control plane's demand signal), for a spec the tier
// admits or one it rejects, before its link has loaded and after.
func TestReadyDecidesNoAdmission(t *testing.T) {
	h := newHarness(t)
	cfg := h.tierConfig(t)
	open := holdDials(&cfg)
	tier, _ := startTier(t, cfg, "ldap://"+h.srv.Addr())
	t.Cleanup(open) // before the tier stops: its link may still be dialling
	var observed atomic.Int64
	tier.SetAdmissionObserver(func(query.Query, bool) { observed.Add(1) })

	specs := []query.Query{
		query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=040*)"),
		query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=05*)"),
	}
	ask := func(when string) {
		t.Helper()
		for _, q := range specs {
			tier.Ready(q)
		}
		c := tier.Counters()
		if checks, admitted, rejected := c.AdmitChecks.Load(), c.Admitted.Load(), c.Rejected.Load(); checks+admitted+rejected != 0 {
			t.Errorf("%s: Ready counted %d admission checks, %d admitted, %d rejected; want none", when, checks, admitted, rejected)
		}
		if got := observed.Load(); got != 0 {
			t.Errorf("%s: Ready reached the admission observer %d times, want 0", when, got)
		}
	}
	ask("link held")
	open()
	waitSynced(t, tier.Supervisors()[0])
	ask("link loaded")
}

// TestTierRestartResumes: a tier with durable state restarts into a
// resume-poll against the master — content from its link's journal, no second
// Begin, no full reload — and downstream service continues from the restored
// store.
func TestTierRestartResumes(t *testing.T) {
	h := newHarness(t)
	cfg := h.tierConfig(t)
	cfg.StateDir = t.TempDir()

	tier, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tier.Start()
	waitSynced(t, tier.Supervisors()[0])
	mutate(t, h.store, 0)
	waitConverged(t, h.store, tier.Replica().Store(), h.tierSpec, 10*time.Second)
	if err := tier.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}

	// Mutate while the tier is down; the restart must pick the delta up
	// with a resume-poll.
	mutate(t, h.store, 1)

	tier2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tier2.Replica().EntryCount() == 0 {
		t.Fatal("restarted tier restored no content")
	}
	if tier2.Supervisors()[0].Cookie() != tier.Supervisors()[0].Cookie() {
		t.Errorf("restored cookie %q, want %q", tier2.Supervisors()[0].Cookie(), tier.Supervisors()[0].Cookie())
	}
	tier2.Start()
	t.Cleanup(func() { _ = tier2.Stop() })
	waitConverged(t, h.store, tier2.Replica().Store(), h.tierSpec, 15*time.Second)

	eng := h.backend.Engine.Counters().Snapshot()
	if eng.Begins != 1 {
		t.Errorf("master begins = %d, want 1 (restart must resume)", eng.Begins)
	}
	if eng.FullReloads != 0 {
		t.Errorf("master full reloads = %d, want 0", eng.FullReloads)
	}

	// Downstream service resumes immediately over the restored store.
	sup, rep := startLeaf(t, h.tierSpec, serveTier(t, tier2, h), "", supervisor.ModePoll)
	waitSynced(t, sup)
	waitConverged(t, h.store, rep.Store(), h.tierSpec, 10*time.Second)
}

// serveTier wires an already-built tier to a listener.
func serveTier(t *testing.T, tier *Tier, h *harness) string {
	t.Helper()
	backend := ldapnet.NewCascadeBackend(tier.Replica(), tier, "ldap://"+h.srv.Addr())
	srv, err := ldapnet.Serve("127.0.0.1:0", backend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv.Addr()
}

// TestTornCheckpointRecovery simulates a crash mid-journal-append: the link
// journal's final record is torn off, and with it the commit line that carried
// the newer cookie — content and cookie are one batch, so the tear rolls both
// back to the previous commit. The restarted tier must repair the journal,
// restore the surviving content and recover the lost record via resume-poll —
// never a re-Begin.
func TestTornCheckpointRecovery(t *testing.T) {
	h := newHarness(t)
	cfg := h.tierConfig(t)
	cfg.StateDir = t.TempDir()

	tier, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tier.Start()
	waitSynced(t, tier.Supervisors()[0]) // the Begin's batch, cookie on its commit line

	mutate(t, h.store, 0)
	waitConverged(t, h.store, tier.Replica().Store(), h.tierSpec, 10*time.Second)
	// The last batch, the one torn, is a move: a rename and a modify.
	if err := h.store.ModifyDN(dn.MustParse("cn=04-p2,c=us,o=xyz"), dn.RDN{Attr: "cn", Value: "04-p2 renamed"}, dn.MustParse("c=us,o=xyz")); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, h.store, tier.Replica().Store(), h.tierSpec, 10*time.Second)
	if err := tier.Stop(); err != nil { // journal batches under newer cookies
		t.Fatal(err)
	}
	jPath := filepath.Join(tier.linkDir(h.tierSpec.Normalize()), "journal.ldif")
	if raw, err := os.ReadFile(jPath); err != nil || !bytes.Contains(raw, []byte("changetype: modrdn")) {
		t.Fatalf("the move is not in the journal as a rename (read: %v)", err)
	}
	tearLastRecord(t, jPath)

	tier2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart over torn journal: %v", err)
	}
	if tier2.Replica().EntryCount() == 0 {
		t.Fatal("torn recovery restored no content")
	}
	if ok, _ := resynctest.Converged(h.store, tier2.Replica().Store(), h.tierSpec); ok {
		t.Fatal("the tear lost nothing: the scenario did not roll a batch back")
	}
	tier2.Start()
	t.Cleanup(func() { _ = tier2.Stop() })
	waitConverged(t, h.store, tier2.Replica().Store(), h.tierSpec, 15*time.Second)

	eng := h.backend.Engine.Counters().Snapshot()
	if eng.Begins != 1 {
		t.Errorf("master begins = %d, want 1 (torn recovery must resume, not re-begin)", eng.Begins)
	}
}

// tearLastRecord cuts a journal in the middle of its last change record, as a
// crash during the append of the last batch leaves it.
func tearLastRecord(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.LastIndex(raw, []byte("changetype"))
	if idx < 0 {
		t.Fatal("journal holds no change records to tear")
	}
	if err := os.WriteFile(path, raw[:idx+len("changety")], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentUpstreamApplyAndDownstream races upstream applies against
// downstream Begin/Poll, a persist stream and the link's journal commits; run
// under -race it is the memory-safety acceptance test for the tier.
func TestConcurrentUpstreamApplyAndDownstream(t *testing.T) {
	h := newHarness(t)
	cfg := h.tierConfig(t)
	cfg.StateDir = t.TempDir()
	tier, tierSrv := startTier(t, cfg, "ldap://"+h.srv.Addr())
	waitSynced(t, tier.Supervisors()[0])

	supPoll, repPoll := startLeaf(t, h.tierSpec, tierSrv.Addr(), "", supervisor.ModePoll)
	supStream, repStream := startLeaf(t,
		query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=040*)"),
		tierSrv.Addr(), "", supervisor.ModePersist)
	waitSynced(t, supPoll)
	waitSynced(t, supStream)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // upstream churn
		defer wg.Done()
		for round := 0; round < 20; round++ {
			mutate(t, h.store, round)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	go func() { // raw downstream sessions churning against the tier engine
		defer wg.Done()
		eng := tier.Engine()
		for i := 0; i < 20; i++ {
			if err := tier.Admit(h.tierSpec); err != nil {
				t.Errorf("Admit: %v", err)
				return
			}
			res, err := eng.Begin(h.tierSpec)
			if err != nil {
				t.Errorf("Begin: %v", err)
				return
			}
			cookie := res.Cookie
			for j := 0; j < 3; j++ {
				pr, err := eng.Poll(cookie)
				if err != nil {
					t.Errorf("Poll: %v", err)
					return
				}
				cookie = pr.Cookie
			}
			if err := eng.End(cookie); err != nil {
				t.Errorf("End: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	waitConverged(t, h.store, tier.Replica().Store(), h.tierSpec, 15*time.Second)
	waitConverged(t, h.store, repPoll.Store(), h.tierSpec, 15*time.Second)
	waitConverged(t, h.store, repStream.Store(),
		query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=040*)"), 15*time.Second)
}

// TestUpstreamFlapLeavesStayAttached flaps the master↔tier link while two
// leaves stay attached to the tier: the tier resumes by cookie, the leaves
// never divert, and everything converges once the link settles.
func TestUpstreamFlapLeavesStayAttached(t *testing.T) {
	h := newHarness(t)
	tier, tierSrv := startTier(t, h.tierConfig(t), "ldap://"+h.srv.Addr())
	waitSynced(t, tier.Supervisors()[0])

	sup1, rep1 := startLeaf(t, h.tierSpec, tierSrv.Addr(), h.srv.Addr(), supervisor.ModePoll)
	sub := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=040*)")
	sup2, rep2 := startLeaf(t, sub, tierSrv.Addr(), h.srv.Addr(), supervisor.ModePoll)
	waitSynced(t, sup1)
	waitSynced(t, sup2)

	// Flap the upstream link: drop I/O on live connections, refuse fresh
	// dials for a window, and keep mutating through the outage.
	h.inj.SetPlan(chaos.Plan{Seed: 7, DropEveryNOps: 20})
	h.inj.RefuseFor(100 * time.Millisecond)
	for round := 0; round < 6; round++ {
		mutate(t, h.store, round)
		time.Sleep(20 * time.Millisecond)
	}
	waitCounter(t, "tier reconnects", 10*time.Second,
		func() int64 { return tier.Supervisors()[0].Counters().Reconnects.Load() }, 1)
	h.inj.SetPlan(chaos.Plan{})

	mutate(t, h.store, 6)
	waitConverged(t, h.store, tier.Replica().Store(), h.tierSpec, 15*time.Second)
	waitConverged(t, h.store, rep1.Store(), h.tierSpec, 15*time.Second)
	waitConverged(t, h.store, rep2.Store(), sub, 15*time.Second)

	if begins := h.backend.Engine.Counters().Snapshot().Begins; begins != 1 {
		t.Errorf("master begins = %d, want 1 (tier must resume across the flap)", begins)
	}
	if fb := sup1.Counters().UpstreamFallbacks.Load() + sup2.Counters().UpstreamFallbacks.Load(); fb != 0 {
		t.Errorf("leaves diverted %d times during an upstream-only flap, want 0", fb)
	}
}
