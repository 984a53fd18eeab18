package cascade

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/edgewrite"
	"filterdir/internal/ldapnet"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/supervisor"
)

// countPrefix returns how many entries in the store carry a serialNumber
// with the given prefix.
func countPrefix(st *dit.Store, prefix string) int {
	n := 0
	for _, e := range st.All() {
		if strings.HasPrefix(e.First("serialnumber"), prefix) {
			n++
		}
	}
	return n
}

// TestAdoptRetireLifecycle walks the control plane's two actions end to
// end: AdoptSpec widens admission and pulls the widened content, a
// duplicate adopt is a no-op, base specs refuse to retire, and RetireSpec
// drops exactly the retired content while narrowing admission back.
func TestAdoptRetireLifecycle(t *testing.T) {
	h := newHarness(t)
	tier, _ := startTier(t, h.tierConfig(t), "ldap://"+h.srv.Addr())
	waitSynced(t, tier.Supervisors()[0])

	outside := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=05*)")
	if err := tier.Admit(outside); err == nil {
		t.Fatal("tier admitted (serialnumber=05*) before adoption")
	}
	narrower := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=0501)")
	ready, changed := tier.Ready(narrower)
	if ready {
		t.Fatal("tier ready for (serialnumber=0501) before adoption")
	}

	sup, err := tier.AdoptSpec(outside)
	if err != nil {
		t.Fatalf("AdoptSpec: %v", err)
	}
	if sup == nil {
		t.Fatal("AdoptSpec returned no supervisor for a new spec")
	}
	waitSynced(t, sup)
	waitConverged(t, h.store, tier.Replica().Store(), outside, 10*time.Second)

	// Admission widens immediately; the watch is answered once the new
	// link's first exchange has landed, which closes the channel it parked on.
	if err := tier.Admit(narrower); err != nil {
		t.Errorf("narrower spec rejected after adoption: %v", err)
	}
	select {
	case <-changed:
	case <-time.After(10 * time.Second):
		t.Fatal("the adopted link's first sync did not wake the watchers")
	}
	if ready, _ := tier.Ready(narrower); !ready {
		t.Error("tier not ready for (serialnumber=0501) once the adopted link synced")
	}

	// Duplicate adopt (same normalized key, different spelling) is a no-op.
	dup, err := tier.AdoptSpec(query.MustNew("o=xyz", query.ScopeSubtree, "(serialNumber=05*)"))
	if err != nil || dup != nil {
		t.Fatalf("duplicate AdoptSpec = (%v, %v), want (nil, nil)", dup, err)
	}
	if got := len(tier.Specs()); got != 2 {
		t.Fatalf("specs after duplicate adopt = %d, want 2", got)
	}

	if _, err := tier.RetireSpec(h.tierSpec); err == nil {
		t.Fatal("RetireSpec allowed retiring a configured base spec")
	}

	if _, err := tier.RetireSpec(outside); err != nil {
		t.Fatalf("RetireSpec: %v", err)
	}
	if err := tier.Admit(outside); err == nil {
		t.Error("tier still admits (serialnumber=05*) after retirement")
	}
	if got := countPrefix(tier.Replica().Store(), "05"); got != 0 {
		t.Errorf("retired content still stored: %d 05-entries", got)
	}
	if got := countPrefix(tier.Replica().Store(), "04"); got == 0 {
		t.Error("retirement dropped base-spec content")
	}
	waitConverged(t, h.store, tier.Replica().Store(), h.tierSpec, 10*time.Second)
	if _, err := tier.RetireSpec(outside); err == nil {
		t.Error("second RetireSpec of the same spec succeeded")
	}
}

// TestSupervisorsNameLiveLinks: after a retire shifts the link set, every
// supervisor the tier lists still names its own live link, so a status line
// built from Supervisors() alone cannot print one filter's counters under
// another's name.
func TestSupervisorsNameLiveLinks(t *testing.T) {
	h := newHarness(t)
	tier, _ := startTier(t, h.tierConfig(t), "ldap://"+h.srv.Addr())
	first := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=05*)")
	second := query.MustNew("o=xyz", query.ScopeSubtree, "(sn=x)")
	for _, spec := range []query.Query{first, second} {
		if _, err := tier.AdoptSpec(spec); err != nil {
			t.Fatalf("AdoptSpec %s: %v", spec.FilterString(), err)
		}
	}
	if _, err := tier.RetireSpec(first); err != nil {
		t.Fatalf("RetireSpec: %v", err)
	}

	live := map[string]bool{}
	for _, spec := range tier.Specs() {
		live[spec.Key()] = true
	}
	sups := tier.Supervisors()
	if len(sups) != 2 {
		t.Fatalf("%d supervisors after retiring one of three links, want 2", len(sups))
	}
	for i, sup := range sups {
		if !live[sup.Spec().Key()] {
			t.Errorf("Supervisors()[%d] names %s, which is not a live link", i, sup.Spec().FilterString())
		}
	}
}

// TestFiltersChangedNotificationMigratesLeaf: a rejected leaf parked on the
// fallback master migrates back within seconds of AdoptSpec, woken by the
// tier's answer to its filters watch once the adopted link has synced.
func TestFiltersChangedNotificationMigratesLeaf(t *testing.T) {
	h := newHarness(t)
	tier, tierSrv := startTier(t, h.tierConfig(t), "ldap://"+h.srv.Addr())
	waitSynced(t, tier.Supervisors()[0])

	outside := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=05*)")
	rep, err := replica.NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	sup, err := supervisor.New(supervisor.Config{
		Master:       tierSrv.Addr(),
		Fallback:     h.srv.Addr(),
		Spec:         outside,
		PollInterval: 3 * time.Millisecond,
		BackoffBase:  time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		DialTimeout:  2 * time.Second,
		Seed:         5,
		Logf:         t.Logf,
	}, rep)
	if err != nil {
		t.Fatal(err)
	}
	sup.Start()
	t.Cleanup(func() { _ = sup.Stop() })

	waitSynced(t, sup)
	waitCounter(t, "upstream fallbacks", 10*time.Second,
		func() int64 { return sup.Counters().UpstreamFallbacks.Load() }, 1)
	waitConverged(t, h.store, rep.Store(), outside, 10*time.Second)

	if _, err := tier.AdoptSpec(outside); err != nil {
		t.Fatalf("AdoptSpec: %v", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for sup.Target() != tierSrv.Addr() {
		if time.Now().After(deadline) {
			t.Fatalf("leaf never migrated back to the tier (target %s)", sup.Target())
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitConverged(t, h.store, rep.Store(), outside, 10*time.Second)

	// The fallback session was released on the way out: the master serves
	// only the tier's two upstream links.
	deadline = time.Now().Add(10 * time.Second)
	for h.backend.Engine.Sessions() != len(tier.Specs()) {
		if time.Now().After(deadline) {
			t.Fatalf("master sessions = %d, want %d (fallback session not released)",
				h.backend.Engine.Sessions(), len(tier.Specs()))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAdoptedSpecsDurable: adopted specs are part of the tier's durable
// footprint — a restart re-links them.
func TestAdoptedSpecsDurable(t *testing.T) {
	h := newHarness(t)
	cfg := h.tierConfig(t)
	cfg.StateDir = t.TempDir()

	tier, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tier.Start()
	waitSynced(t, tier.Supervisors()[0])

	outside := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=05*)")
	sup, err := tier.AdoptSpec(outside)
	if err != nil {
		t.Fatalf("AdoptSpec: %v", err)
	}
	waitSynced(t, sup)
	waitConverged(t, h.store, tier.Replica().Store(), outside, 10*time.Second)
	if err := tier.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}

	tier2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tier2.Specs()); got != 2 {
		t.Fatalf("restarted tier specs = %d, want 2 (adopted spec lost)", got)
	}
	if err := tier2.Admit(outside); err != nil {
		t.Errorf("restarted tier rejects the adopted spec: %v", err)
	}
	if got := countPrefix(tier2.Replica().Store(), "05"); got == 0 {
		t.Error("restarted tier restored no adopted-spec content")
	}
	tier2.Start()
	t.Cleanup(func() { _ = tier2.Stop() })
	waitConverged(t, h.store, tier2.Replica().Store(), outside, 10*time.Second)
}

// TestRevolutionNeverStrandsLeaf: retiring a spec out from under an
// attached leaf while the master churns that region must re-refer the leaf
// to the fallback without losing an update — the leaf ends converged on
// the master's final content. Run with -race in CI.
func TestRevolutionNeverStrandsLeaf(t *testing.T) {
	h := newHarness(t)
	tier, tierSrv := startTier(t, h.tierConfig(t), "ldap://"+h.srv.Addr())
	waitSynced(t, tier.Supervisors()[0])

	outside := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=05*)")
	sup, err := tier.AdoptSpec(outside)
	if err != nil {
		t.Fatalf("AdoptSpec: %v", err)
	}
	waitSynced(t, sup)

	leaf, rep := startLeaf(t, outside, tierSrv.Addr(), h.srv.Addr(), supervisor.ModePersist)
	waitSynced(t, leaf)
	if got := leaf.Target(); got != tierSrv.Addr() {
		t.Fatalf("leaf target = %s, want tier %s", got, tierSrv.Addr())
	}
	waitConverged(t, h.store, rep.Store(), outside, 10*time.Second)

	// Churn the retired region from a second goroutine while the
	// revolution runs.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			d := dn.MustParse("cn=05-p1,c=us,o=xyz")
			if err := h.store.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{"rev"}}}); err != nil {
				t.Errorf("churn modify: %v", err)
				return
			}
			if err := h.store.Add(personEntry("05", 100+round)); err != nil {
				t.Errorf("churn add: %v", err)
				return
			}
			if round > 0 {
				if err := h.store.Delete(dn.MustParse(personEntry("05", 99+round).DN().String())); err != nil {
					t.Errorf("churn delete: %v", err)
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(10 * time.Millisecond) // let churn overlap the attached phase
	kicked, err := tier.RetireSpec(outside)
	if err != nil {
		close(stop)
		wg.Wait()
		t.Fatalf("RetireSpec: %v", err)
	}
	if kicked < 1 {
		t.Errorf("retire kicked %d sessions, want >= 1", kicked)
	}

	waitCounter(t, "leaf fallbacks", 10*time.Second,
		func() int64 { return leaf.Counters().UpstreamFallbacks.Load() }, 1)
	close(stop)
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for leaf.Target() != h.srv.Addr() {
		if time.Now().After(deadline) {
			t.Fatalf("kicked leaf never re-attached to fallback (target %s)", leaf.Target())
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitConverged(t, h.store, rep.Store(), outside, 10*time.Second)
}

// TestRetiredSpecReleasesEdgeWrites: once an adopted spec is retired, its
// link no longer holds the tier's watermark back, so an edge write committed
// after the retirement still retires as the remaining link syncs past it.
func TestRetiredSpecReleasesEdgeWrites(t *testing.T) {
	h := newHarness(t)
	tier, _ := startTier(t, h.tierConfig(t), "ldap://"+h.srv.Addr())
	w := attachEdgeWriter(t, h, tier)
	waitSynced(t, tier.Supervisors()[0])

	outside := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=05*)")
	sup, err := tier.AdoptSpec(outside)
	if err != nil {
		t.Fatalf("AdoptSpec: %v", err)
	}
	waitSynced(t, sup)
	if _, err := tier.RetireSpec(outside); err != nil {
		t.Fatalf("RetireSpec: %v", err)
	}

	d := dn.MustParse("cn=04-p0,c=us,o=xyz")
	if _, err := w.Submit(dit.Change{Type: dit.ChangeModify, DN: d,
		Mods: []dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{"edge"}}}}); err != nil {
		t.Fatalf("edge write: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for w.Pending() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d edge ops still pending 5s after their commit", w.Pending())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if e, _ := tier.Replica().Store().Get(d); e.First("sn") != "edge" {
		t.Errorf("tier holds %s without the edge write: %s", d, e)
	}
}

// TestEdgeWriteWaitsForEveryLiveLink: the tier's watermark is the minimum
// over its live links, so a committed edge write stays on the overlay while
// one link has not reported, or lags behind its CSN, although another link
// has synced past it. It retires once the lagging link catches up, or at once
// when the lagging link's spec is retired.
func TestEdgeWriteWaitsForEveryLiveLink(t *testing.T) {
	h := newHarness(t)
	cfg := h.tierConfig(t)
	var (
		refuse atomic.Bool
		mu     sync.Mutex
		conns  []net.Conn
	)
	dial := cfg.Dial
	cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		if refuse.Load() {
			return nil, errors.New("upstream unreachable")
		}
		conn, err := dial(addr, timeout)
		if err == nil {
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
		}
		return conn, err
	}
	tier, _ := startTier(t, cfg, "ldap://"+h.srv.Addr())
	w := attachEdgeWriter(t, h, tier)
	waitSynced(t, tier.Supervisors()[0])
	base := tier.snapshotLinks()[0]

	// edgeWrite commits one edge write, waits for the base link to report
	// a watermark past it, and returns its CSN.
	round := 0
	edgeWrite := func() uint64 {
		t.Helper()
		round++
		csn, err := w.Submit(dit.Change{Type: dit.ChangeModify, DN: dn.MustParse("cn=04-p0,c=us,o=xyz"),
			Mods: []dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{fmt.Sprintf("edge%d", round)}}}})
		if err != nil {
			t.Fatalf("edge write: %v", err)
		}
		waitFor(t, "the base link's watermark to reach the edge write", func() bool { return base.wm.Load() >= csn })
		time.Sleep(50 * time.Millisecond) // more polls, more reports from the base link
		return csn
	}

	// The base link keeps its connection; the adopted one gets none, so it
	// never reports a watermark.
	refuse.Store(true)
	lagging := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=05*)")
	sup, err := tier.AdoptSpec(lagging)
	if err != nil {
		t.Fatalf("AdoptSpec: %v", err)
	}
	edgeWrite()
	if n := w.Pending(); n != 1 {
		t.Fatalf("pending with the adopted link unreported = %d, want 1", n)
	}
	refuse.Store(false)
	waitSynced(t, sup)
	waitFor(t, "the edge write to retire once the adopted link reports", func() bool { return w.Pending() == 0 })

	// Cut the adopted link off: it stays at the last watermark it reported,
	// short of the next edge write's CSN.
	refuse.Store(true)
	mu.Lock()
	_ = conns[len(conns)-1].Close()
	mu.Unlock()
	adopted := tier.snapshotLinks()[1]
	if csn := edgeWrite(); adopted.wm.Load() >= csn {
		t.Fatalf("the cut link reported %d, past the edge write's CSN %d", adopted.wm.Load(), csn)
	}
	if n := w.Pending(); n != 1 {
		t.Fatalf("pending with the adopted link lagging = %d, want 1", n)
	}
	if _, err := tier.RetireSpec(lagging); err != nil {
		t.Fatalf("RetireSpec: %v", err)
	}
	if n := w.Pending(); n != 0 {
		t.Errorf("pending once the lagging spec is retired = %d, want 0", n)
	}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// attachEdgeWriter opens an edge writer that forwards to the harness master,
// gated and looked up by the tier, and attaches it to the tier.
func attachEdgeWriter(t *testing.T, h *harness, tier *Tier) *edgewrite.Writer {
	t.Helper()
	fwd := ldapnet.NewEdgeForwarder(h.srv.Addr())
	t.Cleanup(func() { fwd.Close() })
	w, err := edgewrite.Open(edgewrite.Config{
		Dir:     t.TempDir(),
		Forward: fwd,
		Admit:   tier.AdmitWrite,
		Lookup:  tier.Replica().Store().Get,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	tier.AttachEdgeWriter(w)
	return w
}
