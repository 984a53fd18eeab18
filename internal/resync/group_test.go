package resync

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
	"filterdir/internal/resync/resynctest"
)

// TestGroupMembership pins the content-group admission rule: grouping keys
// on (base, scope, filter) after normalization and on nothing else — not on
// the attribute selection, and not on what containment claims of two
// filters whose keys differ.
func TestGroupMembership(t *testing.T) {
	mk := func(base string, scope query.Scope, f string, attrs ...string) query.Query {
		return query.MustNew(base, scope, f, attrs...)
	}
	tests := []struct {
		name       string
		setup      func(t *testing.T, st *dit.Store) // entries beyond newMaster's
		specs      []query.Query
		wantGroups int
		// wantUpdates, when set, is the number of updates each Begin ships.
		wantUpdates []int
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
			name: "normalization-equal filters share a group",
			specs: []query.Query{
				mk("o=xyz", query.ScopeSubtree, "(&(dept=eng)(serialnumber=04*))"),
				mk("O=XYZ", query.ScopeSubtree, "(&(serialnumber=04*)(dept=eng))"),
			},
			wantGroups: 1,
		},
		{
			name: "double negation normalizes away",
			specs: []query.Query{
				mk("o=xyz", query.ScopeSubtree, "(dept=eng)"),
				mk("o=xyz", query.ScopeSubtree, "(&(dept=eng)(!(!(dept=eng))))"),
			},
			wantGroups: 1,
		},
		{
			name: "an absorption spelling founds its own group",
			specs: []query.Query{
				mk("o=xyz", query.ScopeSubtree, "(dept=eng)"),
				// (a) selects what (|(a)(&(a)(b))) does, but normalization
				// does not reduce the second to the first, so the keys differ.
				mk("o=xyz", query.ScopeSubtree, "(|(dept=eng)(&(dept=eng)(sn=a*)))"),
			},
			wantGroups: 2,
		},
		{
			// Containment reasoning that takes an attribute to hold one value
			// finds both filters unsatisfiable, so equal; an entry holding sn
			// a and b is selected by the first and not by the second.
			name: "filters empty only for single-valued attributes split groups",
			setup: func(t *testing.T, st *dit.Store) {
				e := entry.New(dn.MustParse("cn=multi,c=us,o=xyz"))
				e.Put("objectclass", "person").Put("cn", "multi").Put("sn", "a", "b")
				if err := st.Add(e); err != nil {
					t.Fatal(err)
				}
			},
			specs: []query.Query{
				mk("o=xyz", query.ScopeSubtree, "(&(sn=a)(sn=b))"),
				mk("o=xyz", query.ScopeSubtree, "(&(cn=x)(cn=y))"),
			},
			wantGroups:  2,
			wantUpdates: []int{1, 0},
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
			master := newMaster(t)
			if tt.setup != nil {
				tt.setup(t, master)
			}
			eng := NewEngine(master)
			var cookies []string
			for i, spec := range tt.specs {
				res, err := eng.Begin(spec)
				if err != nil {
					t.Fatalf("begin %d: %v", i, err)
				}
				if tt.wantUpdates != nil && len(res.Updates) != tt.wantUpdates[i] {
					t.Errorf("begin %d (%s) ships %d updates, want %d", i, spec.FilterString(), len(res.Updates), tt.wantUpdates[i])
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
// frees all registry state (the group, its cached intervals), and a later
// Begin founds a fresh group.
func TestGroupLeaveAndTeardown(t *testing.T) {
	master := newMaster(t)
	addPerson(t, master, "a", "0401", "1")
	eng := NewEngine(master)

	resA, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	// Second member joins through another spelling of the same key.
	respelled := query.MustNew("O=XYZ", query.ScopeSubtree, "(&(serialnumber=04*)(!(!(serialnumber=04*))))")
	resB, err := eng.Begin(respelled)
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
	if _, ok, late := recv(sub, time.After(2*time.Second)); late {
		t.Fatal("subscription not ended by End of last member")
	} else if ok {
		t.Error("expected the subscription to end, got a batch")
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
		batch, ok, late := recv(s.sub, deadline)
		switch {
		case late:
			t.Fatalf("stream %d never received the fan-out batch", i)
		case !ok:
			t.Fatalf("stream %d closed before delivering", i)
		}
		if len(batch.Updates) != 1 || batch.Updates[0].Action != ActionAdd {
			t.Errorf("stream %d batch = %+v", i, batch.Updates)
		}
		if want := uint64(master.LastCSN()); batch.Point != want {
			t.Errorf("stream %d batch names sync point %d, want the commit's CSN %d", i, batch.Point, want)
		}
		if batch.Enc == nil {
			t.Errorf("stream %d batch has no shared encoding memo", i)
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
	if ok, why := resynctest.Converged(master, replica, specSerial04); !ok {
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

// TestStalledConsumerTakesBurstAsOneBatch: a consumer that takes nothing
// while a burst of commits lands in its content is handed the whole burst by
// its next Next, as one net batch, with no further commit to trigger it. The
// stream keeps no queue of per-commit batches: its poll covers everything
// since the sync point the session stands at.
func TestStalledConsumerTakesBurstAsOneBatch(t *testing.T) {
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
	defer sub.Close()
	const burst = 20
	want := map[string]bool{}
	for k := 0; k < burst; k++ {
		want[addPerson(t, master, fmt.Sprintf("burst%02d", k), fmt.Sprintf("04%02d", k), "1").Norm()] = true
		// Spaced out, so that a supplier pushing a batch per commit into a
		// queue would have queued them one by one.
		time.Sleep(time.Millisecond)
	}
	b, ok := nextWithin(t, sub, 5*time.Second)
	if !ok {
		t.Fatal("stream ended instead of delivering the burst")
	}
	if len(b.Updates) != burst {
		t.Fatalf("first batch after the burst carries %d updates, want all %d commits' as one", len(b.Updates), burst)
	}
	for _, u := range b.Updates {
		if u.Action != ActionAdd || !want[u.DN.Norm()] {
			t.Errorf("unexpected update %v %s", u.Action, u.DN)
		}
	}
	if want := uint64(master.LastCSN()); b.Point != want {
		t.Errorf("batch names sync point %d, want the burst's last CSN %d", b.Point, want)
	}
}

// TestEndEndsWaitingStream: ending a streamed session — by End, or by a
// tier's Kick — ends its stream at once: a Next waiting for a commit returns
// false with none committed. Another member keeps the content group alive,
// so the group's teardown is not what ends it.
func TestEndEndsWaitingStream(t *testing.T) {
	for _, how := range []string{"End", "Kick"} {
		t.Run(how, func(t *testing.T) {
			master := newMaster(t)
			eng := NewEngine(master)
			if _, err := eng.Begin(specSerial04); err != nil {
				t.Fatal(err)
			}
			res, err := eng.Begin(specSerial04)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := eng.Persist(res.Cookie)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			at := master.LastCSN()
			out := make(chan bool, 1)
			go func() {
				_, ok := sub.Next()
				out <- ok
			}()
			// Whether Next is waiting yet or not, it must end.
			time.Sleep(10 * time.Millisecond)
			id, _, _ := SplitCookie(res.Cookie)
			if how == "End" {
				if err := eng.End(res.Cookie); err != nil {
					t.Fatal(err)
				}
			} else if kicked := eng.Kick(func(query.Query) bool { return false }); len(kicked) != 2 || !slices.Contains(kicked, id) {
				t.Fatalf("Kick ended %v, want both sessions", kicked)
			}
			select {
			case ok := <-out:
				if ok {
					t.Error("Next returned a batch, want the stream's end")
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("Next still waiting after %s", how)
			}
			if master.LastCSN() != at {
				t.Fatal("the store committed meanwhile")
			}
		})
	}
}

// nextWithin is sub.Next, failing the test if it does not return within d.
func nextWithin(t *testing.T, sub *Subscription, d time.Duration) (Batch, bool) {
	t.Helper()
	type next struct {
		b  Batch
		ok bool
	}
	out := make(chan next, 1)
	go func() {
		b, ok := sub.Next()
		out <- next{b, ok}
	}()
	select {
	case n := <-out:
		return n.b, n.ok
	case <-time.After(d):
		t.Fatalf("Next did not return within %v", d)
		return Batch{}, false
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
		b, _, late := recv(sub, time.After(5*time.Second))
		if late {
			t.Fatalf("round %d: due batch never delivered", i)
		}
		res.Cookie = pushedCookie(res.Cookie, b)
		sub.Close()
	}
}

// TestSharedEncFinalTail: the tail that ends a pushed batch is shared by the
// members reaching the point the memo was made for, and built apart — not
// kept — for a point named otherwise or a watermark other than the first.
func TestSharedEncFinalTail(t *testing.T) {
	enc := &SharedEnc{point: 7}
	builds := 0
	build := func(tag string) func() ([]byte, error) {
		return func() ([]byte, error) { builds++; return []byte(tag), nil }
	}
	for _, tc := range []struct {
		point, csn uint64
		want       string
		built      bool
	}{
		{7, 7, "first", true},
		{7, 7, "first", false},
		{5, 7, "rebuilt", true}, // a rebuilt point's own name
		{7, 9, "moved", true},   // a watermark that rose meanwhile
		{7, 7, "first", false},
	} {
		got, built, err := enc.GetFinal(tc.point, tc.csn, build(tc.want))
		if err != nil || string(got) != tc.want || built != tc.built {
			t.Errorf("GetFinal(%d, %d) = %q built=%v %v, want %q built=%v", tc.point, tc.csn, got, built, err, tc.want, tc.built)
		}
	}
	if builds != 3 {
		t.Errorf("%d builds, want 3", builds)
	}
}
