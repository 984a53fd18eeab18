package replica

import (
	"errors"
	"fmt"
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

func TestSubtreeReplicaCanAnswer(t *testing.T) {
	us := dn.MustParse("c=us,o=xyz")
	research := dn.MustParse("ou=research,c=us,o=xyz")
	r, err := NewSubtreeReplica([]dit.Context{{Suffix: us, Referrals: []dn.DN{research}}})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		base string
		want bool
	}{
		{"c=us,o=xyz", true},                   // suffix itself
		{"cn=p1,c=us,o=xyz", true},             // inside
		{"ou=research,c=us,o=xyz", false},      // at subordinate referral
		{"cn=x,ou=research,c=us,o=xyz", false}, // under subordinate referral
		{"c=in,o=xyz", false},                  // other subtree
		{"o=xyz", false},                       // above suffix
		{"", false},                            // null base (minimally enabled apps)
	}
	for _, tt := range tests {
		q := query.MustNew(tt.base, query.ScopeSubtree, "(objectclass=*)")
		if got := r.CanAnswer(q); got != tt.want {
			t.Errorf("CanAnswer(base=%q) = %v, want %v", tt.base, got, tt.want)
		}
	}
}

func TestSubtreeReplicaAnswerAndPartial(t *testing.T) {
	master := buildMaster(t)
	us := dn.MustParse("c=us,o=xyz")
	r, err := NewSubtreeReplica([]dit.Context{{Suffix: us}})
	if err != nil {
		t.Fatal(err)
	}
	// Replicate the us subtree.
	usContent := master.MatchAll(query.MustNew("c=us,o=xyz", query.ScopeSubtree, ""))
	if err := r.Store().Load(sortParentsFirst(usContent)); err != nil {
		t.Fatal(err)
	}

	// Complete answer.
	res, hit := r.Answer(query.MustNew("c=us,o=xyz", query.ScopeSubtree, "(serialnumber=0401)"))
	if !hit || len(res.Entries) != 1 {
		t.Fatalf("hit=%v entries=%v", hit, res)
	}
	// Null-base miss.
	if _, hit := r.Answer(query.MustNew("", query.ScopeSubtree, "(serialnumber=0401)")); hit {
		t.Error("null-base query must miss a subtree replica")
	}
	m := r.Metrics()
	if m.Queries != 2 || m.Hits != 1 || m.Misses != 1 {
		t.Errorf("metrics = %+v", m)
	}
	if m.HitRatio() != 0.5 {
		t.Errorf("hit ratio = %v", m.HitRatio())
	}
}

func TestSubtreeReplicaPartialAnswer(t *testing.T) {
	// A replica whose context contains a subordinate referral: queries
	// whose region touches the referral are only partially answered.
	us := dn.MustParse("c=us,o=xyz")
	research := dn.MustParse("ou=research,c=us,o=xyz")
	r, err := NewSubtreeReplica([]dit.Context{{Suffix: us, Referrals: []dn.DN{research}}})
	if err != nil {
		t.Fatal(err)
	}
	country := entry.New(us)
	country.Put("objectclass", "country").Put("c", "us")
	ref := entry.New(research)
	ref.Put("objectclass", dit.ReferralClass).Put(dit.RefAttr, "ldap://hostB")
	person := entry.New(dn.MustParse("cn=p1,c=us,o=xyz"))
	person.Put("objectclass", "person").Put("cn", "p1").Put("sn", "x")
	if err := r.Store().Load([]*entry.Entry{country, ref, person}); err != nil {
		t.Fatal(err)
	}

	res, hit := r.Answer(query.MustNew("c=us,o=xyz", query.ScopeSubtree, "(objectclass=*)"))
	if hit {
		t.Error("query over a region with a subordinate referral must not be a hit")
	}
	if res == nil || len(res.Referrals) != 1 {
		t.Fatalf("expected partial answer with referral, got %+v", res)
	}
	if m := r.Metrics(); m.Partial != 1 {
		t.Errorf("partial not counted: %+v", m)
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

	m := r.Metrics()
	if m.Queries != 3 || m.Hits != 2 || m.Misses != 1 {
		t.Errorf("metrics = %+v", m)
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

func TestFilterReplicaUserQueryCache(t *testing.T) {
	master := buildMaster(t)
	r, err := NewFilterReplica(WithCacheCapacity(2))
	if err != nil {
		t.Fatal(err)
	}
	q1 := query.MustNew("", query.ScopeSubtree, "(serialnumber=0401)")
	q2 := query.MustNew("", query.ScopeSubtree, "(serialnumber=0402)")
	q3 := query.MustNew("", query.ScopeSubtree, "(serialnumber=0403)")

	// Miss, then cache from the master result.
	if _, hit, _ := r.Answer(q1); hit {
		t.Fatal("empty replica must miss")
	}
	if err := r.CacheQuery(q1, master.MatchAll(q1)); err != nil {
		t.Fatal(err)
	}
	// Temporal locality: the repeat hits.
	if _, hit, _ := r.Answer(q1); !hit {
		t.Fatal("cached query must hit")
	}
	// Fill the window; q1 evicts.
	if err := r.CacheQuery(q2, master.MatchAll(q2)); err != nil {
		t.Fatal(err)
	}
	if err := r.CacheQuery(q3, master.MatchAll(q3)); err != nil {
		t.Fatal(err)
	}
	if r.CachedCount() != 2 {
		t.Fatalf("CachedCount = %d, want 2", r.CachedCount())
	}
	if _, hit, _ := r.Answer(q1); hit {
		t.Error("evicted query must miss")
	}
	if _, hit, _ := r.Answer(q3); !hit {
		t.Error("fresh cached query must hit")
	}
	// Caching the same query twice is a no-op.
	if err := r.CacheQuery(q3, master.MatchAll(q3)); err != nil {
		t.Fatal(err)
	}
	if r.CachedCount() != 2 {
		t.Errorf("duplicate caching changed count: %d", r.CachedCount())
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

// sortParentsFirst orders entries by DN depth so Load sees parents first.
func sortParentsFirst(entries []*entry.Entry) []*entry.Entry {
	out := append([]*entry.Entry(nil), entries...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].DN().Depth() < out[j-1].DN().Depth(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestStaleCachedEntryDoesNotLeakIntoFreshAnswers(t *testing.T) {
	// A cached user query holds a stale copy of an entry; a fresh query
	// contained in a synced stored filter must not be answered with it.
	master := buildMaster(t)
	eng := resync.NewEngine(master)
	r, err := NewFilterReplica(WithCacheCapacity(4))
	if err != nil {
		t.Fatal(err)
	}
	stored := query.MustNew("", query.ScopeSubtree, "(serialnumber=04*)")
	cookie := syncStored(t, master, eng, r, stored)

	// Cache a user query whose result includes p3 (serial 0403).
	cq := query.MustNew("", query.ScopeSubtree, "(cn=p3)")
	if err := r.CacheQuery(cq, master.MatchAll(cq)); err != nil {
		t.Fatal(err)
	}

	// The master moves p3 out of the stored content; the stored filter
	// syncs, the cache (per the paper) does not.
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

	// Fresh contained query: the stale cached copy (still carrying 0403)
	// must not surface.
	entries, hit, via := r.Answer(query.MustNew("", query.ScopeSubtree, "(serialnumber=0403)"))
	if !hit {
		t.Fatal("query contained in synced filter must hit")
	}
	if len(entries) != 0 {
		t.Fatalf("stale entry leaked into fresh answer via %s: %v", via, entries)
	}
	// The cached query itself still answers (staleness is its documented
	// contract).
	entries, hit, _ = r.Answer(cq)
	if !hit || len(entries) != 1 {
		t.Fatalf("cached query answer: hit=%v n=%d", hit, len(entries))
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
// cmd/ldapreplica builds: it adds, per entry, the one-string posting of each
// of the three values an employee carries among the five indexed attributes,
// and the growth of those indexes.
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
		{"plain", nil, 1.2},
		{"indexed", []FROption{WithContentIndexes("serialnumber", "mail", "dept", "location", "uid")}, 4.8},
	} {
		perEntry := testing.AllocsPerRun(5, func() {
			r, err := NewFilterReplica(tc.opts...)
			if err != nil {
				t.Fatal(err)
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
// covers anything — a cache window that turns over for ever must not grow
// the id table — and an entry two owners cover stays until both are gone.
func TestOwnerIDsFollowLiveOwners(t *testing.T) {
	r, err := NewFilterReplica(WithCacheCapacity(2))
	if err != nil {
		t.Fatal(err)
	}
	spec := query.MustNew("", query.ScopeSubtree, "(serialnumber=04*)")
	r.AddStored(spec, "c")
	ups := ownedBatch(3)
	if err := r.ApplySync(spec, ups); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		q := query.MustNew("", query.ScopeSubtree, fmt.Sprintf("(uid=u04%04d)", i%3))
		q.Attrs = []string{fmt.Sprint("a", i)} // a distinct owner each time
		if err := r.CacheQuery(q, []*entry.Entry{ups[i%3].Entry}); err != nil {
			t.Fatal(err)
		}
	}
	r.mu.Lock()
	ids, owners := len(r.ownerIDs), len(r.ownerDNs)
	r.mu.Unlock()
	if ids != 3 || owners != 3 {
		t.Errorf("after 50 cached queries through a window of 2: %d owner ids, %d owners, want 3 (stored + window)", ids, owners)
	}
	// Entry 1 is covered by the stored query and by a cached one.
	if r.RemoveStored(spec) == nil {
		t.Fatal("stored query not found")
	}
	if n := r.EntryCount(); n != 2 {
		t.Errorf("entries after dropping the stored query = %d, want the 2 the cache window still covers", n)
	}
}

// CachedCount returns the number of cached user queries.
func (r *FilterReplica) CachedCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cache)
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
