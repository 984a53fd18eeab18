package tierctl

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"filterdir/internal/cascade"
	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/ldapnet"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync/resynctest"
	"filterdir/internal/supervisor"
)

func person(prefix string, i int) *entry.Entry {
	e := entry.New(dn.MustParse(fmt.Sprintf("cn=%s-p%d,o=xyz", prefix, i)))
	e.Put("objectclass", "person").
		Put("cn", fmt.Sprintf("%s-p%d", prefix, i)).Put("sn", "x").
		Put("serialNumber", fmt.Sprintf("%s%02d", prefix, i))
	return e
}

// wire-served master with 04, 05 and 06 serial regions, plus a tier
// replicating only (serialnumber=04*).
func newTier(t testing.TB) (*dit.Store, *cascade.Tier, *ldapnet.Server) {
	t.Helper()
	return newTierIn(t, "")
}

// newTierIn is newTier with the tier durable in stateDir ("" for none).
func newTierIn(t testing.TB, stateDir string) (*dit.Store, *cascade.Tier, *ldapnet.Server) {
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
	for i := 0; i < 4; i++ {
		for _, region := range []string{"04", "05", "06"} {
			if err := st.Add(person(region, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	backend := ldapnet.NewStoreBackend(st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	masterSrv := ldapnet.ServeListener(ln, backend)
	t.Cleanup(func() { _ = masterSrv.Close() })

	tier, err := cascade.New(cascade.Config{
		Upstream:     masterSrv.Addr(),
		Specs:        []query.Query{query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)")},
		StateDir:     stateDir,
		PollInterval: 3 * time.Millisecond,
		BackoffBase:  time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		DialTimeout:  2 * time.Second,
		Seed:         11,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	tier.Start()
	t.Cleanup(func() { _ = tier.Stop() })
	return st, tier, masterSrv
}

func waitFor(t testing.TB, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestControllerWidensOnRejections: sustained admission rejections for an
// uncovered region drive the controller to adopt the region's
// generalization into spare budget, after which the once-rejected spec is
// admitted and the rejection is accounted as a migrated-back leaf.
func TestControllerWidensOnRejections(t *testing.T) {
	_, tier, _ := newTier(t)
	ctrl, err := New(Config{Tier: tier, Budget: 2, Interval: 2 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Start()
	defer ctrl.Stop()

	hot := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=0502)")
	if err := tier.Admit(hot); err == nil {
		t.Fatal("tier admitted the hot spec before widening")
	}
	if got := ctrl.Counters().RejectionsObserved.Load(); got < 1 {
		t.Fatalf("rejections observed = %d, want >= 1", got)
	}

	waitFor(t, "widening adoption", 10*time.Second, func() bool {
		return tier.Admit(hot) == nil
	})
	// Admission opens inside AdoptSpec, a moment before the controller counts
	// the widening it returned from.
	waitFor(t, "generalizations >= 1", 10*time.Second, func() bool {
		return ctrl.Counters().Generalizations.Load() >= 1
	})
	if got := ctrl.Counters().LeavesMigratedBack.Load(); got < 1 {
		t.Errorf("leaves migrated back = %d, want >= 1", got)
	}
	// The adopted filter is the serial-prefix generalization, not the raw
	// point spec.
	var adopted string
	for _, q := range tier.Specs() {
		if s := q.FilterString(); strings.Contains(s, "05") {
			adopted = s
		}
	}
	if adopted != "(serialnumber=05*)" {
		t.Errorf("adopted filter = %q, want (serialnumber=05*)", adopted)
	}

	waitFor(t, "widening re-sync accounting", 10*time.Second, func() bool {
		return ctrl.Counters().WidenResyncEntries.Load() >= 4
	})
	if got := ctrl.Counters().WidenResyncBytes.Load(); got <= 0 {
		t.Errorf("widen re-sync bytes = %d, want > 0", got)
	}
	if got := ctrl.Counters().StoredFilters.Load(); got != 2 {
		t.Errorf("stored-filters gauge = %d, want 2", got)
	}
}

// TestFailedAdoptIsUnseeded: a tier that cannot make an adoption durable
// refuses it, and the controller takes the filter back out of the selector's
// stored set. Left there it would be charged to the budget and credited with
// its own rejections, never a candidate again; taken out, a later revolution
// selects it anew and, the tier able to adopt by then, the leaf is admitted.
func TestFailedAdoptIsUnseeded(t *testing.T) {
	stateDir := t.TempDir()
	_, tier, _ := newTierIn(t, stateDir)
	// A directory where tier.json belongs: the rename onto it fails.
	block := filepath.Join(stateDir, "tier.json")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	var refused atomic.Int64
	ctrl, err := New(Config{Tier: tier, Budget: 2, Interval: 2 * time.Millisecond,
		Logf: func(format string, args ...any) {
			if strings.HasPrefix(format, "tierctl: adopt") {
				refused.Add(1)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Start()
	defer ctrl.Stop()

	hot := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=0502)")
	waitFor(t, "a refused adoption", 10*time.Second, func() bool {
		if tier.Admit(hot) == nil {
			t.Fatal("the tier adopted a spec it could not record")
		}
		return refused.Load() >= 1
	})
	if got := len(tier.Specs()); got != 1 {
		t.Fatalf("tier specs after the refused adoption = %d, want 1", got)
	}

	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "adoption by a later revolution", 10*time.Second, func() bool {
		return tier.Admit(hot) == nil
	})
	waitFor(t, "generalizations == 1", 10*time.Second, func() bool {
		return ctrl.Counters().Generalizations.Load() == 1
	})
}

// TestControllerRespectsBudget: with the budget already consumed by the
// base set, rejections accumulate benefit but never widen the tier — the
// operator's size bound wins over demand.
func TestControllerRespectsBudget(t *testing.T) {
	_, tier, _ := newTier(t)
	ctrl, err := New(Config{Tier: tier, Budget: 1, Interval: 2 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Start()
	defer ctrl.Stop()

	hot := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=0502)")
	for i := 0; i < 5; i++ {
		if err := tier.Admit(hot); err == nil {
			t.Fatal("budget-full tier admitted the hot spec")
		}
		time.Sleep(4 * time.Millisecond)
	}
	if got := len(tier.Specs()); got != 1 {
		t.Fatalf("budget-full tier widened to %d specs", got)
	}
	if got := ctrl.Counters().Generalizations.Load(); got != 0 {
		t.Errorf("generalizations = %d, want 0", got)
	}
	// The base spec stays pinned: no revolution may trade it away either.
	if got := ctrl.Counters().FiltersRetired.Load(); got != 0 {
		t.Errorf("filters retired = %d, want 0", got)
	}
}

// TestControllerNarrowsWhenDemandMoves: with one slot beside the base spec,
// the tier adopts (serialnumber=05*) on rejections and serves a leaf from it;
// when rejections for the disjoint 06 region outnumber that leaf's serving
// credit, a revolution trades 05* for 06*. The base spec stays, the leaf still
// attached to 05* is re-referred and converges at the fallback master, the
// diverted 06 leaf migrates back, and with demand settled no later revolution
// changes the set again.
func TestControllerNarrowsWhenDemandMoves(t *testing.T) {
	st, tier, masterSrv := newTier(t)
	tierSrv, err := ldapnet.Serve("127.0.0.1:0",
		ldapnet.NewCascadeBackend(tier.Replica(), tier, "ldap://"+masterSrv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tierSrv.Close() })
	ctrl, err := New(Config{Tier: tier, Budget: 2, Interval: 2 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Start()
	defer ctrl.Stop()

	startLeaf := func(filter string) (*supervisor.Supervisor, *replica.FilterReplica, query.Query) {
		spec := query.MustNew("o=xyz", query.ScopeSubtree, filter)
		frep, err := replica.NewFilterReplica()
		if err != nil {
			t.Fatal(err)
		}
		sup, err := supervisor.New(supervisor.Config{
			Master:       tierSrv.Addr(),
			Fallback:     masterSrv.Addr(),
			Spec:         spec,
			PollInterval: 3 * time.Millisecond,
			BackoffBase:  time.Millisecond,
			BackoffMax:   20 * time.Millisecond,
			DialTimeout:  2 * time.Second,
			Seed:         7,
		}, frep)
		if err != nil {
			t.Fatal(err)
		}
		sup.Start()
		t.Cleanup(func() { _ = sup.Stop() })
		return sup, frep, spec
	}
	servedBy := func(sup *supervisor.Supervisor, frep *replica.FilterReplica, spec query.Query, addr string) func() bool {
		return func() bool {
			ok, _ := resynctest.Converged(st, frep.Store(), spec)
			return ok && sup.Target() == addr
		}
	}
	specs := func() string {
		var out []string
		for _, q := range tier.Specs() {
			out = append(out, q.FilterString())
		}
		sort.Strings(out)
		return strings.Join(out, " ")
	}
	// reject keeps turning the spec away until the tier admits it, in bursts
	// that outnumber the one hit per tick an attached leaf earns its filter.
	reject := func(filter string) {
		spec := query.MustNew("o=xyz", query.ScopeSubtree, filter)
		waitFor(t, "adoption for "+filter, 10*time.Second, func() bool {
			for i := 0; i < 20; i++ {
				if tier.Admit(spec) == nil {
					return true
				}
			}
			return false
		})
	}

	reject("(serialnumber=0502)")
	if got := specs(); got != "(serialnumber=04*) (serialnumber=05*)" {
		t.Fatalf("tier specs after widening = %s", got)
	}
	leafX, repX, specX := startLeaf("(serialnumber=0502)")
	waitFor(t, "05 leaf served by the tier", 10*time.Second, servedBy(leafX, repX, specX, tierSrv.Addr()))

	leafY, repY, specY := startLeaf("(serialnumber=0601)")
	waitFor(t, "06 leaf diverted", 10*time.Second, servedBy(leafY, repY, specY, masterSrv.Addr()))
	reject("(serialnumber=0601)")
	// The revolution's delta is applied adds first: admission of the 06 spec
	// opens a moment before 05* is retired.
	waitFor(t, "tier holding base + 06*", 10*time.Second, func() bool {
		return specs() == "(serialnumber=04*) (serialnumber=06*)"
	})
	waitFor(t, "05 leaf re-referred to the fallback", 10*time.Second, func() bool {
		return ctrl.Counters().LeavesReferred.Load() >= 1 && leafX.Target() == masterSrv.Addr()
	})
	waitFor(t, "06 leaf migrated back", 10*time.Second, servedBy(leafY, repY, specY, tierSrv.Addr()))

	// Updates keep reaching the re-referred leaf, and the tier has let go of
	// the retired content.
	if err := st.Modify(dn.MustParse("cn=05-p2,o=xyz"),
		[]dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{"after"}}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "05 leaf converged at the fallback", 10*time.Second, servedBy(leafX, repX, specX, masterSrv.Addr()))
	if held := tier.Replica().Store().MatchAll(query.MustNew("", query.ScopeSubtree, "(serialnumber=05*)")); len(held) != 0 {
		t.Errorf("tier still holds %d entries of the retired spec", len(held))
	}

	// Settled demand: three more revolution periods change nothing.
	credits := ctrl.Counters().ServingCredits.Load()
	waitFor(t, "three more revolution periods", 10*time.Second, func() bool {
		return ctrl.Counters().ServingCredits.Load() >= credits+3*revolveEvery
	})
	c := ctrl.Counters()
	if got := specs(); got != "(serialnumber=04*) (serialnumber=06*)" {
		t.Errorf("tier specs after settling = %s", got)
	}
	if w, r := c.Generalizations.Load(), c.FiltersRetired.Load(); w != 2 || r != 1 {
		t.Errorf("stored-set changes: %d adopted, %d retired, want 2 and 1", w, r)
	}
}

// TestControllerConfigValidation: New rejects a missing tier and a
// non-positive budget; Stop after Start detaches the admission observer.
func TestControllerConfigValidation(t *testing.T) {
	if _, err := New(Config{Budget: 2}); err == nil {
		t.Error("New accepted a nil tier")
	}
	_, tier, _ := newTier(t)
	if _, err := New(Config{Tier: tier}); err == nil {
		t.Error("New accepted a zero budget")
	}
	if _, err := New(Config{Tier: tier, Budget: -3}); err == nil {
		t.Error("New accepted a negative budget")
	}

	ctrl, err := New(Config{Tier: tier, Budget: 2, Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Start()
	ctrl.Stop()
	// Detached: new rejections no longer reach the (stopped) controller.
	before := ctrl.Counters().RejectionsObserved.Load()
	_ = tier.Admit(query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=0502)"))
	if got := ctrl.Counters().RejectionsObserved.Load(); got != before {
		t.Errorf("stopped controller still observed a rejection: %d -> %d", before, got)
	}
	if got := len(tier.Specs()); got != 1 {
		t.Errorf("stopped controller widened the tier to %d specs", got)
	}
}

// TestLateControllerSeesWaitingLeaves: leaves the tier turned away before
// any controller ran wait on their filters watches, and a controller started
// after that finds them there: it widens the tier at its first revolution,
// and the leaves migrate back. No rejection reached it — the tier had no
// observer when the leaves were turned away — so the waiting leaves are the
// only demand it can see, as after a restart of an adaptive tier.
func TestLateControllerSeesWaitingLeaves(t *testing.T) {
	st, tier, masterSrv := newTier(t)
	tierSrv, err := ldapnet.Serve("127.0.0.1:0",
		ldapnet.NewCascadeBackend(tier.Replica(), tier, "ldap://"+masterSrv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tierSrv.Close() })

	sups := make([]*supervisor.Supervisor, 3)
	reps := make([]*replica.FilterReplica, len(sups))
	spec := func(i int) query.Query {
		return query.MustNew("o=xyz", query.ScopeSubtree, fmt.Sprintf("(serialnumber=050%d)", i))
	}
	for i := range sups {
		if reps[i], err = replica.NewFilterReplica(); err != nil {
			t.Fatal(err)
		}
		sups[i], err = supervisor.New(supervisor.Config{
			Master:       tierSrv.Addr(),
			Fallback:     masterSrv.Addr(),
			Spec:         spec(i),
			PollInterval: 3 * time.Millisecond,
			BackoffBase:  time.Millisecond,
			BackoffMax:   20 * time.Millisecond,
			DialTimeout:  2 * time.Second,
			Seed:         int64(i + 1),
		}, reps[i])
		if err != nil {
			t.Fatal(err)
		}
		sups[i].Start()
		t.Cleanup(func() { _ = sups[i].Stop() })
	}
	waitFor(t, "every leaf waiting on its filters watch", 10*time.Second, func() bool {
		return len(tier.Waiting()) == len(sups)
	})
	for i, sup := range sups {
		if sup.Target() != masterSrv.Addr() {
			t.Fatalf("leaf %d targets %s, want the fallback master", i, sup.Target())
		}
	}

	ctrl, err := New(Config{Tier: tier, Budget: 2, Interval: 2 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Start()
	defer ctrl.Stop()
	waitFor(t, "every leaf back on the tier", 10*time.Second, func() bool {
		if tier.Engine().Sessions() != len(sups) {
			return false // a probing leaf targets the tier before its Begin lands
		}
		for i, sup := range sups {
			if ok, _ := resynctest.Converged(st, reps[i].Store(), spec(i)); !ok || sup.Target() != tierSrv.Addr() {
				return false
			}
		}
		return true
	})
	c := ctrl.Counters()
	if c.RejectionsObserved.Load() != 0 || c.WaitsObserved.Load() < int64(len(sups)) {
		t.Errorf("%s; want 0 rejections and >= %d waits", c, len(sups))
	}
	if c.Generalizations.Load() != 1 || c.LeavesMigratedBack.Load() != int64(len(sups)) {
		t.Errorf("%s; want 1 generalization and %d leaves migrated back", c, len(sups))
	}
	if n := len(tier.Waiting()); n != 0 {
		t.Errorf("%d watches still waiting once every leaf is back", n)
	}
}
