package resync

import (
	"fmt"
	"testing"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/query"
)

// TestGroupMembership pins the content-group admission rules: grouping keys
// on (base, scope, filter) after normalization, falls back to the
// containment checker for equivalent-but-not-identical filters, and ignores
// the attribute selection entirely.
func TestGroupMembership(t *testing.T) {
	mk := func(base string, scope query.Scope, f string, attrs ...string) query.Query {
		return query.MustNew(base, scope, f, attrs...)
	}
	tests := []struct {
		name       string
		specs      []query.Query
		wantGroups int
		wantEquiv  int64 // joins resolved via the containment probe
	}{
		{
			name: "identical specs share a group",
			specs: []query.Query{
				mk("o=xyz", query.ScopeSubtree, "(serialnumber=04*)"),
				mk("o=xyz", query.ScopeSubtree, "(serialnumber=04*)"),
			},
			wantGroups: 1,
		},
		{
			name: "normalization-equal filters alias without a containment probe",
			specs: []query.Query{
				mk("o=xyz", query.ScopeSubtree, "(&(dept=eng)(serialnumber=04*))"),
				mk("O=XYZ", query.ScopeSubtree, "(&(serialnumber=04*)(dept=eng))"),
			},
			wantGroups: 1,
		},
		{
			name: "containment-equivalent filters join one group",
			specs: []query.Query{
				mk("o=xyz", query.ScopeSubtree, "(dept=eng)"),
				// Absorption: (a) == (|(a)(&(a)(b))). Normalization does not
				// reduce this, so only the mutual-containment probe can admit
				// it to the existing group.
				mk("o=xyz", query.ScopeSubtree, "(|(dept=eng)(&(dept=eng)(sn=a*)))"),
			},
			wantGroups: 1,
			wantEquiv:  1,
		},
		{
			name: "different filters get separate groups",
			specs: []query.Query{
				mk("o=xyz", query.ScopeSubtree, "(dept=eng)"),
				mk("o=xyz", query.ScopeSubtree, "(dept=mkt)"),
			},
			wantGroups: 2,
		},
		{
			name: "attribute selection does not split a group",
			specs: []query.Query{
				mk("o=xyz", query.ScopeSubtree, "(serialnumber=04*)", "cn"),
				mk("o=xyz", query.ScopeSubtree, "(serialnumber=04*)", "sn", "mail"),
				mk("o=xyz", query.ScopeSubtree, "(serialnumber=04*)"),
			},
			wantGroups: 1,
		},
		{
			name: "scope difference splits groups",
			specs: []query.Query{
				mk("o=xyz", query.ScopeSubtree, "(serialnumber=04*)"),
				mk("o=xyz", query.ScopeSingleLevel, "(serialnumber=04*)"),
			},
			wantGroups: 2,
		},
		{
			name: "base difference splits groups",
			specs: []query.Query{
				mk("o=xyz", query.ScopeSubtree, "(serialnumber=04*)"),
				mk("c=us,o=xyz", query.ScopeSubtree, "(serialnumber=04*)"),
			},
			wantGroups: 2,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			eng := NewEngine(newMaster(t))
			var cookies []string
			for i, spec := range tt.specs {
				res, err := eng.Begin(spec)
				if err != nil {
					t.Fatalf("begin %d: %v", i, err)
				}
				cookies = append(cookies, res.Cookie)
			}
			if got := eng.Groups(); got != tt.wantGroups {
				t.Errorf("Groups() = %d, want %d", got, tt.wantGroups)
			}
			snap := eng.Counters().Snapshot()
			if snap.GroupJoins != int64(len(tt.specs)) {
				t.Errorf("GroupJoins = %d, want %d", snap.GroupJoins, len(tt.specs))
			}
			if snap.GroupEquivJoins != tt.wantEquiv {
				t.Errorf("GroupEquivJoins = %d, want %d", snap.GroupEquivJoins, tt.wantEquiv)
			}
			for _, c := range cookies {
				if err := eng.End(c); err != nil {
					t.Fatalf("end %s: %v", c, err)
				}
			}
			if got := eng.Groups(); got != 0 {
				t.Errorf("Groups() after all ends = %d, want 0", got)
			}
			snap = eng.Counters().Snapshot()
			if snap.GroupLeaves != int64(len(tt.specs)) {
				t.Errorf("GroupLeaves = %d, want %d", snap.GroupLeaves, len(tt.specs))
			}
		})
	}
}

// TestGroupEquivalentKeysDiffer guards the premise of the containment-probe
// case above: the absorption pair must NOT collapse to one normalized key,
// or the table test would silently stop exercising the equivalence path.
func TestGroupEquivalentKeysDiffer(t *testing.T) {
	a := query.MustNew("o=xyz", query.ScopeSubtree, "(dept=eng)")
	b := query.MustNew("o=xyz", query.ScopeSubtree, "(|(dept=eng)(&(dept=eng)(sn=a*)))")
	if contentKey(a) == contentKey(b) {
		t.Fatalf("absorption pair normalized to one key %q; pick a harder equivalence", contentKey(a))
	}
	eng := NewEngine(newMaster(t))
	if !eng.equivalentSpecs(a, b) {
		t.Fatal("containment checker cannot prove the absorption pair equivalent")
	}
}

// TestGroupSharedClassificationDistinctViews runs two sessions of one
// content group with different attribute selections across the same change
// intervals: the E01/E10/E11 classification is computed once and shared
// (one miss, then hits), while the update batches — including minimal-update
// suppression — are evaluated per view.
func TestGroupSharedClassificationDistinctViews(t *testing.T) {
	master := newMaster(t)
	p := addPerson(t, master, "p", "0401", "1")
	eng := NewEngine(master)

	specCN := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)", "cn")
	specDept := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)", "dept")
	resA, err := eng.Begin(specCN)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := eng.Begin(specDept)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Groups() != 1 {
		t.Fatalf("Groups() = %d, want 1 (attrs must not split)", eng.Groups())
	}

	// Interval 1: one add. Both sessions cross it; first poll classifies,
	// second reuses the cached interval.
	addPerson(t, master, "q", "0402", "7")
	resA, err = eng.Poll(resA.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	resB, err = eng.Poll(resB.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.Counters().Snapshot()
	if snap.SharedClassifyMisses != 1 || snap.SharedClassifyHits != 1 {
		t.Errorf("after interval 1: misses=%d hits=%d, want 1/1",
			snap.SharedClassifyMisses, snap.SharedClassifyHits)
	}
	if len(resA.Updates) != 1 || len(resB.Updates) != 1 {
		t.Fatalf("adds: A=%d B=%d, want 1 each", len(resA.Updates), len(resB.Updates))
	}
	// Same classification, different views: A sees cn, not dept; B the reverse.
	if got := resA.Updates[0].Entry.First("cn"); got != "q" {
		t.Errorf("view cn: cn=%q, want %q", got, "q")
	}
	if got := resA.Updates[0].Entry.First("dept"); got != "" {
		t.Errorf("view cn leaked dept=%q", got)
	}
	if got := resB.Updates[0].Entry.First("dept"); got != "7" {
		t.Errorf("view dept: dept=%q, want %q", got, "7")
	}
	if got := resB.Updates[0].Entry.First("cn"); got != "" {
		t.Errorf("view dept leaked cn=%q", got)
	}

	// Interval 2: modify an attribute only view B selects. The shared
	// classification says E11 for both; the per-view minimal-update check
	// suppresses the PDU for A (its selected view is net-unchanged) and
	// ships it to B.
	if err := master.Modify(p, []dit.Mod{{Op: dit.ModReplace, Attr: "dept", Values: []string{"9"}}}); err != nil {
		t.Fatal(err)
	}
	before := eng.Counters().Snapshot()
	resA, err = eng.Poll(resA.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	resB, err = eng.Poll(resB.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	snap = eng.Counters().Snapshot()
	if d := snap.SharedClassifyMisses - before.SharedClassifyMisses; d != 1 {
		t.Errorf("interval 2 misses = %d, want 1", d)
	}
	if d := snap.SharedClassifyHits - before.SharedClassifyHits; d != 1 {
		t.Errorf("interval 2 hits = %d, want 1", d)
	}
	if len(resA.Updates) != 0 {
		t.Errorf("view cn got %d updates for a dept-only modify, want 0 (suppressed)", len(resA.Updates))
	}
	if len(resB.Updates) != 1 || resB.Updates[0].Action != ActionModify ||
		resB.Updates[0].Entry.First("dept") != "9" {
		t.Errorf("view dept modify batch wrong: %+v", resB.Updates)
	}
	if d := snap.SuppressedModifies - before.SuppressedModifies; d != 1 {
		t.Errorf("SuppressedModifies delta = %d, want 1", d)
	}
}

// TestGroupLeaveAndTeardown verifies sync_end group bookkeeping: a leaving
// member does not disturb the group while peers remain, the last member out
// frees all registry state (groups, aliases, cached intervals), and a later
// Begin founds a fresh group.
func TestGroupLeaveAndTeardown(t *testing.T) {
	master := newMaster(t)
	addPerson(t, master, "a", "0401", "1")
	eng := NewEngine(master)

	resA, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	// Second member joins through a containment-equivalent spelling so the
	// teardown must also clear its alias key.
	equiv := query.MustNew("o=xyz", query.ScopeSubtree, "(|(serialnumber=04*)(&(serialnumber=04*)(sn=zz*)))")
	resB, err := eng.Begin(equiv)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Groups() != 1 {
		t.Fatalf("Groups() = %d, want 1", eng.Groups())
	}
	sessA := sessionOf(t, eng, resA.Cookie)
	g := sessA.group
	if g == nil {
		t.Fatal("session has no group")
	}

	// Classify one interval so the group holds cached state to free.
	addPerson(t, master, "b", "0402", "1")
	if _, err := eng.Poll(resA.Cookie); err != nil {
		t.Fatal(err)
	}

	if err := eng.End(resA.Cookie); err != nil {
		t.Fatal(err)
	}
	if eng.Groups() != 1 {
		t.Errorf("Groups() after first leave = %d, want 1", eng.Groups())
	}
	g.mu.Lock()
	members, cached := g.members, len(g.intervals)
	g.mu.Unlock()
	if members != 1 {
		t.Errorf("members after first leave = %d, want 1", members)
	}
	if cached == 0 {
		t.Error("expected a cached interval before teardown")
	}

	if err := eng.End(resB.Cookie); err != nil {
		t.Fatal(err)
	}
	if eng.Groups() != 0 {
		t.Errorf("Groups() after last leave = %d, want 0", eng.Groups())
	}
	eng.groupMu.Lock()
	aliases := len(eng.aliases)
	eng.groupMu.Unlock()
	if aliases != 0 {
		t.Errorf("alias registry holds %d keys after teardown, want 0", aliases)
	}
	g.mu.Lock()
	cached = len(g.intervals)
	g.mu.Unlock()
	if cached != 0 {
		t.Errorf("torn-down group retains %d cached intervals", cached)
	}

	// A new session founds a fresh group, not a resurrected one.
	resC, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	sessC := sessionOf(t, eng, resC.Cookie)
	if sessC.group == g {
		t.Error("new session joined the torn-down group")
	}
	if eng.Groups() != 1 {
		t.Errorf("Groups() = %d, want 1", eng.Groups())
	}
}

// TestGroupEndClosesSubscriptions: ending the last member of a group while
// it holds live persist subscriptions must close their channels (the wire
// layer reads the close as a clean stream end).
func TestGroupEndClosesSubscriptions(t *testing.T) {
	master := newMaster(t)
	eng := NewEngine(master)
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Persist(res.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.End(res.Cookie); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-sub.Updates:
		if ok {
			t.Error("expected channel close, got a batch")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("subscription channel not closed by End of last member")
	}
	sub.Close() // idempotent after engine-side teardown
}

// TestGroupedPersistFanout drives one change burst into a group with many
// persist subscribers and checks every subscriber converges to the same
// batch content while the classification ran once per interval, not once
// per subscriber.
func TestGroupedPersistFanout(t *testing.T) {
	master := newMaster(t)
	eng := NewEngine(master)

	const nSubs = 8
	type stream struct {
		cookie string
		sub    *Subscription
	}
	var streams []stream
	for i := 0; i < nSubs; i++ {
		res, err := eng.Begin(specSerial04)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := eng.Persist(res.Cookie)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, stream{cookie: res.Cookie, sub: sub})
	}
	if eng.Groups() != 1 {
		t.Fatalf("Groups() = %d, want 1", eng.Groups())
	}

	addPerson(t, master, "fan", "0401", "1")

	deadline := time.After(5 * time.Second)
	for i, s := range streams {
		select {
		case batch, ok := <-s.sub.Updates:
			if !ok {
				t.Fatalf("stream %d closed before delivering", i)
			}
			if len(batch.Updates) != 1 || batch.Updates[0].Action != ActionAdd {
				t.Errorf("stream %d batch = %+v", i, batch.Updates)
			}
			if batch.Cookie == "" {
				t.Errorf("stream %d batch has no cookie", i)
			}
			if batch.Enc == nil {
				t.Errorf("stream %d batch has no shared encoding memo", i)
			}
		case <-deadline:
			t.Fatalf("stream %d never received the fan-out batch", i)
		}
	}

	snap := eng.Counters().Snapshot()
	if snap.SharedClassifyMisses == 0 {
		t.Error("no shared classification recorded")
	}
	if snap.SharedClassifyHits < int64(nSubs-1) {
		t.Errorf("SharedClassifyHits = %d, want >= %d (classify once, reuse for the rest)",
			snap.SharedClassifyHits, nSubs-1)
	}

	for _, s := range streams {
		s.sub.Close()
		if err := eng.End(s.cookie); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Groups() != 0 {
		t.Errorf("Groups() = %d after all ends, want 0", eng.Groups())
	}
}

// TestLoneSessionIsOneMemberGroup: a session with no peers takes the same
// path as any other — it founds a group of one, its results carry the
// group's encoding memo, it converges through the applier, and its End
// tears the group down.
func TestLoneSessionIsOneMemberGroup(t *testing.T) {
	master := newMaster(t)
	addPerson(t, master, "a", "0401", "1")
	eng := NewEngine(master)
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Groups() != 1 {
		t.Errorf("lone session: Groups() = %d, want 1", eng.Groups())
	}
	if res.Enc == nil {
		t.Error("lone session's initial content carries no encoding memo")
	}
	replica := newReplicaStore(t)
	ap := NewApplier(replica)
	if err := ap.Apply(specSerial04, res); err != nil {
		t.Fatal(err)
	}
	addPerson(t, master, "b", "0402", "1")
	if res, err = eng.Poll(res.Cookie); err != nil {
		t.Fatal(err)
	}
	if err := ap.Apply(specSerial04, res); err != nil {
		t.Fatal(err)
	}
	if ok, why := Converged(master, replica, specSerial04); !ok {
		t.Fatalf("lone session did not converge: %s", why)
	}
	snap := eng.Counters().Snapshot()
	if snap.GroupJoins != 1 || snap.SharedClassifyMisses != 1 || snap.SharedClassifyHits != 0 {
		t.Errorf("joins/misses/hits = %d/%d/%d, want 1/1/0",
			snap.GroupJoins, snap.SharedClassifyMisses, snap.SharedClassifyHits)
	}
	if err := eng.End(res.Cookie); err != nil {
		t.Fatal(err)
	}
	if eng.Groups() != 0 {
		t.Errorf("Groups() after End = %d, want 0", eng.Groups())
	}
}

// sweepEqualContent asserts two poll results carry the same update set.
func sweepEqualContent(t *testing.T, tag string, a, b []Update) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: update counts differ: %d vs %d", tag, len(a), len(b))
	}
	am := map[string]Action{}
	for _, u := range a {
		am[u.DN.String()] = u.Action
	}
	for _, u := range b {
		if am[u.DN.String()] != u.Action {
			t.Errorf("%s: %s: %v vs %v", tag, u.DN, am[u.DN.String()], u.Action)
		}
	}
}

// TestGroupedMatchesAlone is the oracle-in-miniature: two members of one
// content group and a session alone in its own engine over the same store
// must yield identical update sets for the same change stream — the shared
// classification must be invisible.
func TestGroupedMatchesAlone(t *testing.T) {
	master := newMaster(t)
	for i := 0; i < 6; i++ {
		addPerson(t, master, fmt.Sprintf("s%d", i), fmt.Sprintf("04%02d", i), "1")
	}
	grouped, alone := NewEngine(master), NewEngine(master)
	var cookies []string
	for _, eng := range []*Engine{grouped, grouped, alone} {
		res, err := eng.Begin(specSerial04)
		if err != nil {
			t.Fatal(err)
		}
		cookies = append(cookies, res.Cookie)
	}
	// One burst: E01, E10, E11 all present.
	addPerson(t, master, "new", "0490", "2")
	if err := master.Modify(dn.MustParse("cn=s0,c=us,o=xyz"), []dit.Mod{{Op: dit.ModReplace, Attr: "serialNumber", Values: []string{"0900"}}}); err != nil {
		t.Fatal(err)
	}
	if err := master.Modify(dn.MustParse("cn=s1,c=us,o=xyz"), []dit.Mod{{Op: dit.ModReplace, Attr: "dept", Values: []string{"3"}}}); err != nil {
		t.Fatal(err)
	}
	var got [][]Update
	for i, eng := range []*Engine{grouped, grouped, alone} {
		p, err := eng.Poll(cookies[i])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p.Updates)
	}
	if snap := grouped.Counters().Snapshot(); snap.SharedClassifyHits != 1 {
		t.Errorf("grouped SharedClassifyHits = %d, want 1 (the second member reuses the first's interval)", snap.SharedClassifyHits)
	}
	sweepEqualContent(t, "grouped members agree", got[0], got[1])
	sweepEqualContent(t, "grouped == alone", got[0], got[2])
}

// TestSkippedSubscriberRetriedOnDrain pins the fix for the undelivered burst
// tail: four persist members of one group, one of which stops reading so
// that its queue fills and the last commits of a burst pass it over. The
// write stream then falls silent. When the stalled member resumes reading,
// the dequeue itself must win it the cycle it is owed — the coalesced batch
// arrives and every member converges with no further commit to trigger it.
func TestSkippedSubscriberRetriedOnDrain(t *testing.T) {
	master := newMaster(t)
	eng := NewEngine(master)
	const members = 4
	subs := make([]*Subscription, members)
	held := make([]map[string]bool, members)
	var g *group
	for i := range subs {
		res, err := eng.Begin(specSerial04)
		if err != nil {
			t.Fatal(err)
		}
		sess := sessionOf(t, eng, res.Cookie)
		g = sess.group
		if subs[i], err = eng.Persist(res.Cookie); err != nil {
			t.Fatal(err)
		}
		defer subs[i].Close()
		held[i] = map[string]bool{}
	}
	take := func(i int, what string) {
		t.Helper()
		select {
		case b, ok := <-subs[i].Updates:
			if !ok {
				t.Fatalf("member %d: stream closed waiting for %s", i, what)
			}
			for _, u := range b.Updates {
				held[i][u.DN.Norm()] = u.Action != ActionDelete
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("member %d: timed out waiting for %s", i, what)
		}
	}

	// Member 0 stalls. Commit one entry per cycle until cycles have passed
	// it over, reading the other members so theirs complete; the cycle
	// barrier makes sure each commit's cycle ran before the next commit.
	var want []string
	for k := 0; eng.Counters().CoalescedCycles.Load() < 2; k++ {
		if k > 2*defaultPersistQueueCap+4 {
			t.Fatal("the stalled member's queue never filled")
		}
		d := addPerson(t, master, fmt.Sprintf("burst%02d", k), fmt.Sprintf("04%02d", k), "1")
		want = append(want, d.Norm())
		for i := 1; i < members; i++ {
			take(i, "burst commit")
		}
		g.cycleMu.Lock()
		//lint:ignore SA2001 empty critical section is the barrier
		g.cycleMu.Unlock()
	}

	// Silence. The stalled member now reads until it holds everything; the
	// tail can only come from a cycle its own dequeues kicked.
	converged := func(i int) bool {
		for _, norm := range want {
			if !held[i][norm] {
				return false
			}
		}
		return true
	}
	for !converged(0) {
		take(0, "the coalesced tail of the burst")
	}
	for i := 1; i < members; i++ {
		if !converged(i) {
			t.Errorf("member %d did not converge", i)
		}
	}
	if n := eng.Counters().SlowDemotions.Load(); n != 0 {
		t.Errorf("SlowDemotions = %d, want 0: the member was to be retried, not demoted", n)
	}
}

// TestPersistSyncsBeforeReturning: a stream resumed behind the head is
// synchronized by Persist itself, not by a broadcaster cycle that may or may
// not have run yet — so where the session stands once the caller holds the
// subscription (and may close it again at once) does not depend on
// scheduling.
func TestPersistSyncsBeforeReturning(t *testing.T) {
	master := newMaster(t)
	eng := NewEngine(master)
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	sess := sessionOf(t, eng, res.Cookie)
	for i := 0; i < 20; i++ {
		d := addPerson(t, master, fmt.Sprintf("behind%02d", i), fmt.Sprintf("04%02d", i), "1")
		sub, err := eng.Persist(res.Cookie)
		if err != nil {
			t.Fatal(err)
		}
		sess.mu.Lock()
		at := sess.csn
		_, held := sess.content[d.Norm()]
		sess.mu.Unlock()
		if at != master.LastCSN() || !held {
			t.Fatalf("round %d: Persist returned with the session at CSN %d, store at %d", i, at, master.LastCSN())
		}
		select {
		case b := <-sub.Updates:
			res.Cookie = b.Cookie
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: due batch never delivered", i)
		}
		sub.Close()
	}
}
