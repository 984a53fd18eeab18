package replica

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
	"filterdir/internal/resync"
)

// buildMaster creates a master DIT with employees in two countries and a
// research referral inside c=us.
func buildMaster(t testing.TB) *dit.Store {
	t.Helper()
	st, err := dit.NewStore([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	add := func(dnStr string, cls string, attrs map[string]string) {
		e := entry.New(dn.MustParse(dnStr))
		e.Put("objectclass", cls)
		for k, v := range attrs {
			e.Put(k, v)
		}
		if err := st.Add(e); err != nil {
			t.Fatalf("add %s: %v", dnStr, err)
		}
	}
	add("o=xyz", "organization", map[string]string{"o": "xyz"})
	add("c=us,o=xyz", "country", map[string]string{"c": "us"})
	add("c=in,o=xyz", "country", map[string]string{"c": "in"})
	for i := 0; i < 10; i++ {
		cc := "us"
		if i >= 6 {
			cc = "in"
		}
		add(fmt.Sprintf("cn=p%d,c=%s,o=xyz", i, cc), "inetOrgPerson", map[string]string{
			"cn": fmt.Sprintf("p%d", i), "sn": "x",
			"serialnumber": fmt.Sprintf("04%02d", i),
			"dept":         fmt.Sprintf("24%02d", i%4),
			"div":          "sw",
		})
	}
	return st
}

// TestSubtreeQueriesAnswerAsIsContained: a replica holding whole subtrees as
// (suffix, subtree, match-all) queries — the subtree baseline of the
// experiments — hits exactly when the paper's isContained(b, C) (Section
// 3.4.1) holds for contexts without subordinate referrals, whatever the
// query's scope and filter, and a hit returns what the master returns.
func TestSubtreeQueriesAnswerAsIsContained(t *testing.T) {
	master := buildMaster(t)
	eng := resync.NewEngine(master)
	r, err := NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	suffixes := []dn.DN{dn.MustParse("c=us,o=xyz"), dn.MustParse("cn=p7,c=in,o=xyz")}
	for _, s := range suffixes {
		syncStored(t, master, eng, r, query.Query{Base: s, Scope: query.ScopeSubtree})
	}
	// The reference: the base equals a suffix or lies under one.
	isContained := func(b dn.DN) bool {
		return slices.ContainsFunc(suffixes, func(s dn.DN) bool { return s.Equal(b) || s.IsSuffix(b) })
	}
	bases := []struct{ where, base string }{
		{"null base", ""},
		{"above both suffixes", "o=xyz"},
		{"at a suffix", "c=us,o=xyz"},
		{"under a suffix", "cn=p1,c=us,o=xyz"},
		{"under a suffix, no entry there", "cn=x,cn=p1,c=us,o=xyz"},
		{"above one suffix, beside the other", "c=in,o=xyz"},
		{"at a leaf suffix", "cn=p7,c=in,o=xyz"},
		{"beside a leaf suffix", "cn=p8,c=in,o=xyz"},
	}
	for _, b := range bases {
		for _, scope := range []query.Scope{query.ScopeBase, query.ScopeSingleLevel, query.ScopeSubtree} {
			for _, f := range []string{"(objectclass=*)", "(serialnumber=04*)"} {
				q := query.MustNew(b.base, scope, f)
				got, hit, _ := r.Answer(q)
				if want := isContained(q.Base); hit != want {
					t.Errorf("%s, %s %s: hit = %v, isContained = %v", b.where, scope, f, hit, want)
					continue
				}
				if !hit {
					continue
				}
				var gotDNs, wantDNs []string
				for _, e := range got {
					gotDNs = append(gotDNs, e.DN().Norm())
				}
				for _, e := range master.MatchAll(q) {
					wantDNs = append(wantDNs, e.DN().Norm())
				}
				slices.Sort(gotDNs)
				slices.Sort(wantDNs)
				if !slices.Equal(gotDNs, wantDNs) {
					t.Errorf("%s, %s %s: replica answered %v, master %v", b.where, scope, f, gotDNs, wantDNs)
				}
			}
		}
	}
}

// syncStored registers a query on the replica and syncs its content from
// the master via a fresh ReSync session.
func syncStored(t testing.TB, master *dit.Store, eng *resync.Engine, r *FilterReplica, q query.Query) string {
	t.Helper()
	res, err := eng.Begin(q)
	if err != nil {
		t.Fatal(err)
	}
	r.AddStored(q, res.Cookie)
	if err := r.ApplySync(q, res.Updates); err != nil {
		t.Fatal(err)
	}
	return res.Cookie
}

func TestFilterReplicaAnswersContainedQueries(t *testing.T) {
	master := buildMaster(t)
	eng := resync.NewEngine(master)
	r, err := NewFilterReplica(WithContentIndexes("serialnumber", "dept"))
	if err != nil {
		t.Fatal(err)
	}
	// Replicate the generalized serial-number prefix filter over the whole
	// DIT (null base: answers minimally-directory-enabled applications).
	gen := query.MustNew("", query.ScopeSubtree, "(serialnumber=04*)")
	syncStored(t, master, eng, r, gen)
	if got := r.Counters().HitRatio(); got != 0 {
		t.Errorf("hit ratio before any query = %v, want 0", got)
	}

	// Specific user query contained in the generalized filter.
	q := query.MustNew("", query.ScopeSubtree, "(serialnumber=0403)")
	entries, hit, via := r.Answer(q)
	if !hit {
		t.Fatal("expected hit")
	}
	if len(entries) != 1 || entries[0].First("cn") != "p3" {
		t.Fatalf("entries = %v", entries)
	}
	if via == "" {
		t.Error("via not reported")
	}

	// Cross-country semantic locality (Section 3.1.2): entries from both
	// country subtrees are served by one filter.
	q = query.MustNew("", query.ScopeSubtree, "(serialnumber=0407)")
	entries, hit, _ = r.Answer(q)
	if !hit || len(entries) != 1 {
		t.Fatalf("cross-country hit failed: hit=%v n=%d", hit, len(entries))
	}

	// Not contained: different prefix.
	if _, hit, _ := r.Answer(query.MustNew("", query.ScopeSubtree, "(serialnumber=0599)")); hit {
		t.Error("uncontained query must miss")
	}

	m := r.Counters()
	if m.Queries.Load() != 3 || m.Hits.Load() != 2 || m.Misses.Load() != 1 {
		t.Errorf("counters = %s", m)
	}
	if got := m.HitRatio(); got != 2.0/3 {
		t.Errorf("hit ratio = %v, want 2/3", got)
	}
}

// TestMultiValuedQueryMisses: two equalities on one attribute never pin a
// value. An entry holding cn {p5, p3} outside the stored filter matches
// (&(cn=p3)(cn=p5)), so a replica holding (serialnumber=0403) cannot answer
// that query and must miss rather than return its empty selection.
func TestMultiValuedQueryMisses(t *testing.T) {
	master := buildMaster(t)
	p5 := dn.MustParse("cn=p5,c=us,o=xyz")
	if err := master.Modify(p5, []dit.Mod{{Op: dit.ModAdd, Attr: "cn", Values: []string{"p3"}}}); err != nil {
		t.Fatal(err)
	}
	r, err := NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	syncStored(t, master, resync.NewEngine(master), r, query.MustNew("", query.ScopeSubtree, "(serialnumber=0403)"))

	q := query.MustNew("o=xyz", query.ScopeSubtree, "(&(cn=p3)(cn=p5))")
	res, err := master.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 || !res.Entries[0].DN().Equal(p5) {
		t.Fatalf("master answers %d entries, want cn=p5 alone", len(res.Entries))
	}
	if entries, hit, via := r.Answer(q); hit {
		t.Errorf("hit via %s with %d entries; the master holds cn=p5 outside it", via, len(entries))
	}
}

func TestFilterReplicaSyncKeepsAnswersFresh(t *testing.T) {
	master := buildMaster(t)
	eng := resync.NewEngine(master)
	r, err := NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	gen := query.MustNew("", query.ScopeSubtree, "(serialnumber=04*)")
	cookie := syncStored(t, master, eng, r, gen)

	// Master-side update: p3's dept changes.
	if err := master.Modify(dn.MustParse("cn=p3,c=us,o=xyz"),
		[]dit.Mod{{Op: dit.ModReplace, Attr: "dept", Values: []string{"9999"}}}); err != nil {
		t.Fatal(err)
	}
	poll, err := eng.Poll(cookie)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ApplySync(gen, poll.Updates); err != nil {
		t.Fatal(err)
	}
	entries, hit, _ := r.Answer(query.MustNew("", query.ScopeSubtree, "(serialnumber=0403)"))
	if !hit || len(entries) != 1 || entries[0].First("dept") != "9999" {
		t.Fatalf("stale answer after sync: %v", entries)
	}

	// Master-side delete leaves the replica consistent.
	if err := master.Delete(dn.MustParse("cn=p3,c=us,o=xyz")); err != nil {
		t.Fatal(err)
	}
	poll, err = eng.Poll(cookie)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ApplySync(gen, poll.Updates); err != nil {
		t.Fatal(err)
	}
	entries, hit, _ = r.Answer(query.MustNew("", query.ScopeSubtree, "(serialnumber=0403)"))
	if !hit {
		t.Fatal("query still contained, must hit")
	}
	if len(entries) != 0 {
		t.Errorf("deleted entry still served: %v", entries)
	}
}

func TestFilterReplicaRefCounting(t *testing.T) {
	master := buildMaster(t)
	eng := resync.NewEngine(master)
	r, err := NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	// Two overlapping stored queries: serial 04* covers all ten, dept 2400
	// covers a subset of the same entries.
	q1 := query.MustNew("", query.ScopeSubtree, "(serialnumber=04*)")
	q2 := query.MustNew("", query.ScopeSubtree, "(dept=2400)")
	syncStored(t, master, eng, r, q1)
	syncStored(t, master, eng, r, q2)
	if r.EntryCount() != 10 {
		t.Fatalf("EntryCount = %d, want 10", r.EntryCount())
	}
	// Removing q1 keeps the q2-covered entries.
	r.RemoveStored(q1)
	if r.StoredCount() != 1 {
		t.Errorf("StoredCount = %d", r.StoredCount())
	}
	want := len(master.MatchAll(q2))
	if r.EntryCount() != want {
		t.Errorf("EntryCount after removal = %d, want %d", r.EntryCount(), want)
	}
	// Queries against q2's content still hit.
	if _, hit, _ := r.Answer(query.MustNew("", query.ScopeSubtree, "(dept=2400)")); !hit {
		t.Error("q2 content lost")
	}
	// q1's queries now miss.
	if _, hit, _ := r.Answer(query.MustNew("", query.ScopeSubtree, "(serialnumber=0401)")); hit {
		t.Error("q1 removed but still answering")
	}
}

func TestFilterReplicaFlatNamespaceSelective(t *testing.T) {
	// Section 3.3: a flat namespace (all employees under one container) can
	// be partially replicated by filter but not by subtree.
	master := buildMaster(t)
	eng := resync.NewEngine(master)
	r, err := NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	gen := query.MustNew("c=us,o=xyz", query.ScopeSubtree, "(serialnumber=040*)")
	syncStored(t, master, eng, r, gen)
	// Only the matching children of the flat container are held.
	if r.EntryCount() >= 7 {
		t.Errorf("selective replication held %d entries", r.EntryCount())
	}
	if _, hit, _ := r.Answer(query.MustNew("c=us,o=xyz", query.ScopeSubtree, "(serialnumber=0402)")); !hit {
		t.Error("selective content must answer contained query")
	}
}

func TestStaleEntryDoesNotLeakIntoFreshAnswers(t *testing.T) {
	// A second stored query that has not polled yet holds a stale copy of
	// an entry; a fresh query contained in the first, synced one must not
	// be answered with it.
	master := buildMaster(t)
	eng := resync.NewEngine(master)
	r, err := NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	stored := query.MustNew("", query.ScopeSubtree, "(serialnumber=04*)")
	cookie := syncStored(t, master, eng, r, stored)
	// The second stored query covers p3 (serial 0403) too.
	lagging := query.MustNew("", query.ScopeSubtree, "(cn=p3)")
	syncStored(t, master, eng, r, lagging)

	// The master moves p3 out of the first query's content; the first
	// query syncs, the second has not polled yet.
	if err := master.Modify(dn.MustParse("cn=p3,c=us,o=xyz"),
		[]dit.Mod{{Op: dit.ModReplace, Attr: "serialNumber", Values: []string{"0999"}}}); err != nil {
		t.Fatal(err)
	}
	poll, err := eng.Poll(cookie)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ApplySync(stored, poll.Updates); err != nil {
		t.Fatal(err)
	}

	// Fresh contained query: the stale copy (still carrying 0403) must not
	// surface.
	entries, hit, via := r.Answer(query.MustNew("", query.ScopeSubtree, "(serialnumber=0403)"))
	if !hit {
		t.Fatal("query contained in synced filter must hit")
	}
	if len(entries) != 0 {
		t.Fatalf("stale entry leaked into fresh answer via %s: %v", via, entries)
	}
	// The lagging query itself still answers with its copy until it polls.
	entries, hit, _ = r.Answer(lagging)
	if !hit || len(entries) != 1 {
		t.Fatalf("lagging query answer: hit=%v n=%d", hit, len(entries))
	}
}

// ownedBatch builds n fresh, unfrozen person entries as add updates — what a
// consumer has in hand after decoding a reload off the wire.
func ownedBatch(n int) []resync.Update {
	ups := make([]resync.Update, n)
	for i := range ups {
		e := entry.New(dn.MustParse(fmt.Sprintf("cn=p%04d,c=us,o=xyz", i)))
		e.Put("objectclass", "top", "person", "inetOrgPerson")
		e.Put("cn", fmt.Sprintf("p%04d", i)).Put("sn", "x")
		e.Put("serialnumber", fmt.Sprintf("04%04d", i)).Put("mail", fmt.Sprintf("p%04d@us.xyz.com", i))
		e.Put("uid", fmt.Sprintf("u04%04d", i))
		ups[i] = resync.Update{Action: resync.ActionAdd, DN: e.DN(), Entry: e}
	}
	return ups
}

// TestApplySyncOwnsItsBatch: ApplySync stores the entries it is given, not
// copies of them, journals them under one CSN each, and commits the whole
// exchange in one pass through the store's pipeline with one change signal.
func TestApplySyncOwnsItsBatch(t *testing.T) {
	r, err := NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	spec := query.MustNew("", query.ScopeSubtree, "(serialnumber=04*)")
	r.AddStored(spec, "c")
	ups := ownedBatch(50)
	sig := r.Store().ChangeSignal()
	if err := r.ApplySync(spec, ups); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sig:
	default:
		t.Fatal("no change signal after ApplySync")
	}
	if c := r.Store().Counters().Snapshot(); c.Batches != 1 {
		t.Errorf("store commit batches = %d, want 1 for one exchange", c.Batches)
	}
	changes, ok := r.Store().ChangesSince(0)
	if !ok || len(changes) != len(ups) {
		t.Fatalf("journal records = %d (ok=%v), want %d", len(changes), ok, len(ups))
	}
	held := r.Store().MatchAll(spec)
	for i, e := range held {
		if e != ups[i].Entry || changes[i].After != e {
			t.Fatalf("entry %d: stored, journaled and received entry are not one object", i)
		}
		if !e.Frozen() {
			t.Fatalf("entry %d stored unfrozen", i)
		}
	}
	// A delete and a replace in one later exchange.
	repl := ups[1].Entry.Clone().Put("sn", "y")
	if err := r.ApplySync(spec, []resync.Update{
		{Action: resync.ActionDelete, DN: ups[0].DN},
		{Action: resync.ActionModify, DN: repl.DN(), Entry: repl},
	}); err != nil {
		t.Fatal(err)
	}
	if r.EntryCount() != len(ups)-1 {
		t.Errorf("entries = %d, want %d", r.EntryCount(), len(ups)-1)
	}
	if got, _, _ := r.Answer(query.MustNew("", query.ScopeSubtree, "(serialnumber=040001)")); len(got) != 1 || got[0].First("sn") != "y" {
		t.Errorf("replace not visible: %v", got)
	}
}

// TestApplySyncAllocsPerEntry is the allocation gate of the consumer's
// apply: a 1 000-entry owned batch lands in the content store and the
// reference-count maps at a few allocations per entry — the growth of the
// store's and the replica's maps and nothing else per entry: no clone of the
// entry (which alone costs three), an owner set that lives in its map slot,
// a journal reserved once for the batch. The indexed variant is the replica
// cmd/ldapreplica builds once a read has asked for all five of its indexes,
// as a mid-tier's downstream Begin does: it adds, per entry, the one-string
// posting of each of the three values an employee carries among the five
// indexed attributes, and the growth of those indexes.
func TestApplySyncAllocsPerEntry(t *testing.T) {
	const n = 1000
	spec := query.MustNew("", query.ScopeSubtree, "(serialnumber=04*)")
	ups := ownedBatch(n)
	for _, u := range ups {
		u.Entry.Freeze() // frozen entries may be handed to any number of replicas
	}
	for _, tc := range []struct {
		name        string
		opts        []FROption
		maxPerEntry float64
	}{
		// Map growth is per shard, so the shard count moves both: measured at
		// 1, 2 and 8 shards, plain 0.1 / 0.1 / 0.2 and indexed 3.2 / 3.3 / 3.8
		// (18.3 before postings were slices); the gates are the largest + 1.
		// Since indexes are built at a first read, the indexed variant starts
		// with one, whose view the batch's first writes copy-on-write away
		// from: 3.4 / 3.5 / 4.3.
		{"plain", nil, 1.2},
		{"indexed", []FROption{WithContentIndexes("serialnumber", "mail", "dept", "location", "uid")}, 4.8},
	} {
		perEntry := testing.AllocsPerRun(5, func() {
			r, err := NewFilterReplica(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "indexed" {
				r.Store().MatchAll(query.MustNew("", query.ScopeSubtree,
					"(|(serialnumber=0)(mail=0)(dept=0)(location=0)(uid=0))"))
			}
			r.AddStored(spec, "c")
			if err := r.ApplySync(spec, ups); err != nil {
				t.Fatal(err)
			}
		}) / n
		t.Logf("ApplySync (%s): %.1f allocations per entry of a %d-entry owned batch", tc.name, perEntry, n)
		if perEntry > tc.maxPerEntry {
			t.Errorf("ApplySync (%s) allocates %.1f times per entry, gate is %.1f", tc.name, perEntry, tc.maxPerEntry)
		}
	}
}

// TestApplySyncAllocsUnreadIndexes is the allocation gate of a replica
// nothing reads from, a leaf: a 3 000-entry reload lands in a replica that
// declares cmd/ldapreplica's five content indexes at the allocations of one
// that declares none — no index is built until a read wants it, where
// maintaining all five cost about three allocations per entry. The first
// indexed read then builds the index it wants and answers as a scan does.
func TestApplySyncAllocsUnreadIndexes(t *testing.T) {
	const n = 3000
	spec := query.MustNew("", query.ScopeSubtree, "(serialnumber=04*)")
	ups := ownedBatch(n)
	for _, u := range ups {
		u.Entry.Freeze()
	}
	var r *FilterReplica
	perEntry := testing.AllocsPerRun(5, func() {
		var err error
		if r, err = NewFilterReplica(WithContentIndexes("serialnumber", "mail", "dept", "location", "uid")); err != nil {
			t.Fatal(err)
		}
		r.AddStored(spec, "c")
		if err := r.ApplySync(spec, ups); err != nil {
			t.Fatal(err)
		}
	}) / n
	t.Logf("ApplySync (five indexes, unread): %.3f allocations per entry of a %d-entry reload", perEntry, n)
	if perEntry > 0.1 {
		t.Errorf("ApplySync into an unread replica allocates %.2f times per entry, gate 0.1", perEntry)
	}

	q := query.MustNew("", query.ScopeSubtree, "(serialnumber=041*)")
	var scan []string
	for _, e := range r.Store().All() {
		if q.Filter.Matches(e) {
			scan = append(scan, e.DN().String())
		}
	}
	var got []string
	for _, e := range r.Store().MatchAll(q) {
		got = append(got, e.DN().String())
	}
	if len(scan) != 1000 || !slices.Equal(got, scan) {
		t.Errorf("indexed read: %d entries, scan %d (want 1000)", len(got), len(scan))
	}
}

// TestOwnerSet: the per-entry owner set is a set whatever the order of
// arrivals and departures, with one owner inline and the zero value empty.
func TestOwnerSet(t *testing.T) {
	var s ownerSet
	if s.has(1) || s.has(0) || s.first != 0 {
		t.Fatalf("zero set = %+v, want empty", s)
	}
	for _, id := range []ownerID{3, 1, 3, 2, 1} {
		s = s.with(id)
	}
	if !s.has(1) || !s.has(2) || !s.has(3) || s.has(4) || len(s.rest) != 2 {
		t.Fatalf("after adding 3,1,3,2,1: %+v", s)
	}
	s = s.without(4) // not a member
	s = s.without(3) // the inline owner: another takes its place
	if s.has(3) || !s.has(1) || !s.has(2) || s.first == 0 || len(s.rest) != 1 {
		t.Fatalf("after removing the inline owner: %+v", s)
	}
	s = s.without(1).without(2)
	if s.first != 0 || len(s.rest) != 0 {
		t.Fatalf("after removing everything: %+v, want empty", s)
	}
}

// TestOwnerIDsFollowLiveOwners: an owner's id lives as long as the owner
// covers anything — stored queries that turn over for ever must not grow the
// id table — and an entry two owners cover stays until both are gone.
func TestOwnerIDsFollowLiveOwners(t *testing.T) {
	r, err := NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	spec := query.MustNew("", query.ScopeSubtree, "(serialnumber=04*)")
	r.AddStored(spec, "c")
	if err := r.ApplySync(spec, ownedBatch(3)); err != nil {
		t.Fatal(err)
	}
	// 50 more stored queries, each removed two turns after it was added,
	// so two of them are live at a time.
	var live []query.Query
	for i := 0; i < 50; i++ {
		q := query.MustNew("", query.ScopeSubtree, fmt.Sprintf("(uid=u04%04d)", i%3))
		q.Attrs = []string{fmt.Sprint("a", i)} // a distinct owner each time
		r.AddStored(q, "c")
		if err := r.ApplySync(q, ownedBatch(3)[i%3:i%3+1]); err != nil {
			t.Fatal(err)
		}
		if live = append(live, q); len(live) > 2 {
			if r.RemoveStored(live[0]) == nil {
				t.Fatal("stored query not found")
			}
			live = live[1:]
		}
	}
	r.mu.Lock()
	ids, owners := len(r.ownerIDs), len(r.ownerDNs)
	r.mu.Unlock()
	if ids != 3 || owners != 3 {
		t.Errorf("after 50 stored queries turned over two at a time: %d owner ids, %d owners, want 3", ids, owners)
	}
	// Entries 0 and 1 are covered by the first stored query and by a live
	// one each.
	if r.RemoveStored(spec) == nil {
		t.Fatal("stored query not found")
	}
	if n := r.EntryCount(); n != 2 {
		t.Errorf("entries after dropping the first stored query = %d, want the 2 the live ones still cover", n)
	}
}

// TestMatchAllReplicaAgreesWithMaster replays what an objectclass-less add
// used to do to a replica holding (objectclass=*), which answers every query
// under its base as a hit because containment reads the presence test as
// match-all: the master held an entry the replica never received, so
// (cn=x) was a hit with no entries while the master returned one. The
// master now refuses the entry, and both answer alike.
func TestMatchAllReplicaAgreesWithMaster(t *testing.T) {
	master := buildMaster(t)
	eng := resync.NewEngine(master)
	r, err := NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	all := query.MustNew("o=xyz", query.ScopeSubtree, "(objectclass=*)")
	cookie := syncStored(t, master, eng, r, all)

	bare := entry.New(dn.MustParse("cn=x,c=us,o=xyz")).Put("cn", "x")
	if _, err := master.ApplyCSN(dit.Change{Type: dit.ChangeAdd, DN: bare.DN(), After: bare}); !errors.Is(err, dit.ErrSchema) {
		t.Fatalf("master add without objectclass: %v, want ErrSchema", err)
	}
	poll, err := eng.Poll(cookie)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ApplySync(all, poll.Updates); err != nil {
		t.Fatal(err)
	}
	q := query.MustNew("o=xyz", query.ScopeSubtree, "(cn=x)")
	got, hit, _ := r.Answer(q)
	if !hit {
		t.Fatal("(cn=x) missed a replica holding (objectclass=*)")
	}
	want, err := master.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Entries) {
		t.Errorf("replica answered %d entries, master %d", len(got), len(want.Entries))
	}
}

// TestDefaultJournalBounded: a replica built without a journal bound keeps
// DefaultJournalLimit changes, however many updates it applies — nothing
// reads a plain replica's journal — and WithJournalLimit(0) keeps every
// change, for a replica whose store an engine serves.
func TestDefaultJournalBounded(t *testing.T) {
	const updates = 1000
	for _, tc := range []struct {
		name string
		opts []FROption
		want int
	}{
		{"default", nil, DefaultJournalLimit},
		{"unbounded", []FROption{WithJournalLimit(0)}, updates},
	} {
		r, err := NewFilterReplica(tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		spec := query.MustNew("", query.ScopeSubtree, "(serialnumber=04*)")
		r.AddStored(spec, "c")
		for _, u := range ownedBatch(updates) {
			if err := r.ApplySync(spec, []resync.Update{u}); err != nil {
				t.Fatal(err)
			}
		}
		st := r.Store()
		if got := st.LastCSN(); got != updates {
			t.Fatalf("%s: store CSN = %d after %d updates", tc.name, got, updates)
		}
		held, ok := st.ChangesSince(st.LastCSN() - dit.CSN(tc.want))
		if !ok || len(held) != tc.want {
			t.Errorf("%s: journal holds %d records (covered=%v), want %d", tc.name, len(held), ok, tc.want)
		}
		if _, ok := st.ChangesSince(st.LastCSN() - dit.CSN(tc.want) - 1); ok && tc.want < updates {
			t.Errorf("%s: journal holds more than %d records", tc.name, tc.want)
		}
	}
}
