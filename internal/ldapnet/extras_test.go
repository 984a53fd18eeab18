package ldapnet

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync/resynctest"
	"filterdir/internal/selection"
)

func TestServerSideSort(t *testing.T) {
	store := newTestStore(t)
	srv, _ := startServer(t, store)
	c := dialT(t, srv.Addr())

	q := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)")
	// Ascending by serialnumber.
	res, err := c.Search(q, proto.NewSortControl(proto.SortKey{Attr: "serialnumber"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 5 {
		t.Fatalf("entries = %d", len(res.Entries))
	}
	for i := 1; i < len(res.Entries); i++ {
		prev := res.Entries[i-1].First("serialnumber")
		cur := res.Entries[i].First("serialnumber")
		if prev > cur {
			t.Errorf("not ascending: %s before %s", prev, cur)
		}
	}
	// Descending.
	res, err = c.Search(q, proto.NewSortControl(proto.SortKey{Attr: "serialnumber", Reverse: true}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Entries); i++ {
		if res.Entries[i-1].First("serialnumber") < res.Entries[i].First("serialnumber") {
			t.Error("not descending")
		}
	}
}

// buildReplica populates a filter replica with one synced stored query.
func buildReplica(t *testing.T, master *StoreBackend) *replica.FilterReplica {
	t.Helper()
	rep, err := replica.NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	spec := query.MustNew("", query.ScopeSubtree, "(serialnumber=04*)")
	res, err := master.Engine.Begin(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep.AddStored(spec, res.Cookie)
	if err := rep.ApplySync(spec, res.Updates); err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestReplicaBackendHitAndReferral(t *testing.T) {
	store := newTestStore(t)
	masterBackend := NewStoreBackend(store)
	masterSrv, err := Serve("127.0.0.1:0", masterBackend)
	if err != nil {
		t.Fatal(err)
	}
	defer masterSrv.Close()

	rep := buildReplica(t, masterBackend)
	repSrv, err := Serve("127.0.0.1:0", NewReplicaBackend(rep, "ldap://master"))
	if err != nil {
		t.Fatal(err)
	}
	defer repSrv.Close()

	c := dialT(t, repSrv.Addr())
	// Contained query: answered locally.
	res, err := c.Search(query.MustNew("", query.ScopeSubtree, "(serialnumber=0401)"))
	if err != nil {
		t.Fatalf("contained query: %v", err)
	}
	if len(res.Entries) != 1 {
		t.Fatalf("entries = %d", len(res.Entries))
	}
	// Uncontained query: referral to master.
	_, err = c.Search(query.MustNew("", query.ScopeSubtree, "(serialnumber=05*)"))
	var re *ResultError
	if !errors.As(err, &re) || re.Code != proto.ResultReferral {
		t.Fatalf("uncontained query: %v", err)
	}
	if len(re.Referrals) != 1 || re.Referrals[0] != "ldap://master" {
		t.Errorf("referrals = %v", re.Referrals)
	}
	// Updates refused.
	e := entry.New(dn.MustParse("cn=x,c=us,o=xyz"))
	e.Put("objectclass", "person").Put("cn", "x").Put("sn", "x")
	if err := c.Add(e); err == nil {
		t.Error("replica accepted an update")
	}
}

func TestReplicaBackendChaseToMaster(t *testing.T) {
	// A resolver chases the replica's referral back to the master and
	// completes the query there.
	store := newTestStore(t)
	masterBackend := NewStoreBackend(store)
	masterSrv, err := Serve("127.0.0.1:0", masterBackend)
	if err != nil {
		t.Fatal(err)
	}
	defer masterSrv.Close()
	rep := buildReplica(t, masterBackend)
	repSrv, err := Serve("127.0.0.1:0", NewReplicaBackend(rep, "ldap://master"))
	if err != nil {
		t.Fatal(err)
	}
	defer repSrv.Close()

	r := NewResolver()
	defer r.Close()
	r.Register("replica", repSrv.Addr())
	r.Register("master", masterSrv.Addr())

	res, err := r.SearchChasing("replica", query.MustNew("o=xyz", query.ScopeSubtree, "(objectclass=country)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 {
		t.Errorf("entries = %d, want 1 (from master)", len(res.Entries))
	}
	if r.RoundTrips() != 2 {
		t.Errorf("round trips = %d, want 2 (replica miss + master)", r.RoundTrips())
	}
}

func TestWireSyncFullReloadAfterTrim(t *testing.T) {
	// A journal-limited master forces a FullReload over the wire; the
	// consumer replaces the spec's content, as the supervisor does, and
	// converges.
	store, err := newTrimStore()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", NewStoreBackend(store))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dialT(t, srv.Addr())

	spec := query.MustNew("o=xyz", query.ScopeSubtree, "(objectclass=person)")
	res, err := c.Sync(spec, proto.ReSyncModePoll, "")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replica.NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	rep.AddStored(spec, res.Cookie)
	if err := rep.ApplySync(spec, res.Updates); err != nil {
		t.Fatal(err)
	}

	// More changes than the journal holds.
	for i := 0; i < 6; i++ {
		e := entry.New(dn.MustParse("cn=t" + string(rune('a'+i)) + ",o=xyz"))
		e.Put("objectclass", "person").Put("cn", "t").Put("sn", "t")
		if err := store.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	res, err = c.Sync(spec, proto.ReSyncModePoll, res.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullReload {
		t.Fatal("expected FullReload flag over the wire")
	}
	rep.RemoveStored(spec)
	rep.AddStored(spec, res.Cookie)
	if err := rep.ApplySync(spec, res.Updates); err != nil {
		t.Fatal(err)
	}
	if ok, why := resynctest.Converged(store, rep.Store(), spec); !ok {
		t.Fatalf("not converged after wire full reload: %s", why)
	}
}

// newTrimStore builds a journal-limited master with one person entry.
func newTrimStore() (*dit.Store, error) {
	store, err := dit.NewStore([]string{"o=xyz"}, dit.WithJournalLimit(2))
	if err != nil {
		return nil, err
	}
	org := entry.New(dn.MustParse("o=xyz"))
	org.Put("objectclass", "organization").Put("o", "xyz")
	if err := store.Add(org); err != nil {
		return nil, err
	}
	p := entry.New(dn.MustParse("cn=seed,o=xyz"))
	p.Put("objectclass", "person").Put("cn", "seed").Put("sn", "s")
	if err := store.Add(p); err != nil {
		return nil, err
	}
	return store, nil
}

func TestAdaptiveReplicaOverWire(t *testing.T) {
	// An AdaptiveReplica supplied by a wire client behaves like its
	// in-process twin: it learns the hot region, installs the filter over
	// the wire, and polls updates.
	store := newTestStore(t)
	srv, _ := startServer(t, store)
	c := dialT(t, srv.Addr())

	rep, err := replica.NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	gen := selection.NewGeneralizer(selection.PrefixRule{Attr: "serialnumber", PrefixLen: 3})
	sizeOf := func(q query.Query) int { return len(store.MatchAll(q)) }
	sel := selection.NewSelector(gen, sizeOf, 10, 4)
	ar := replica.NewAdaptiveReplica(rep, sel, c)

	hot := query.MustNew("", query.ScopeSubtree, "(serialnumber=0401)")
	hits := 0
	for i := 0; i < 12; i++ {
		hit, err := ar.Serve(hot)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			hits++
		}
	}
	if hits < 5 {
		t.Fatalf("adaptive-over-wire never learned: %d hits", hits)
	}

	// Master update propagates through a wire poll.
	if err := store.Modify(dn.MustParse("cn=p1,c=us,o=xyz"),
		[]dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{"v2"}}}); err != nil {
		t.Fatal(err)
	}
	if err := ar.SyncAll(); err != nil {
		t.Fatal(err)
	}
	entries, hit, _ := rep.Answer(hot)
	if !hit || len(entries) != 1 || entries[0].First("sn") != "v2" {
		t.Fatalf("wire sync failed: %v", entries)
	}
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClients(t *testing.T) {
	// Many clients search and sync in parallel while the master mutates;
	// run with -race to validate the server's locking.
	store := newTestStore(t)
	srv, _ := startServer(t, store)

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			spec := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)")
			res, err := c.Sync(spec, proto.ReSyncModePoll, "")
			if err != nil {
				errs <- err
				return
			}
			cookie := res.Cookie
			for i := 0; i < 20; i++ {
				if _, err := c.Search(query.MustNew("o=xyz", query.ScopeSubtree, "(sn=*)")); err != nil {
					errs <- err
					return
				}
				poll, err := c.Sync(spec, proto.ReSyncModePoll, cookie)
				if err != nil {
					errs <- err
					return
				}
				cookie = poll.Cookie
			}
			errs <- c.End(cookie)
		}(w)
	}
	// A writer mutates the master concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			d := dn.MustParse("cn=p1,c=us,o=xyz")
			_ = store.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: "sn",
				Values: []string{fmt.Sprintf("v%d", i)}}})
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func TestPagedSearch(t *testing.T) {
	store := newTestStore(t)
	srv, _ := startServer(t, store)
	c := dialT(t, srv.Addr())

	q := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)")
	before := c.RoundTrips()
	res, err := c.SearchPaged(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 5 {
		t.Fatalf("paged entries = %d, want 5", len(res.Entries))
	}
	// 5 entries at page size 2 → 3 pages → 3 round trips.
	if got := c.RoundTrips() - before; got != 3 {
		t.Errorf("round trips = %d, want 3", got)
	}
	// Pages must not duplicate or drop entries.
	seen := make(map[string]bool)
	for _, e := range res.Entries {
		if seen[e.DN().Norm()] {
			t.Errorf("duplicate entry %s across pages", e.DN())
		}
		seen[e.DN().Norm()] = true
	}
	// Deterministic DN order across the whole result.
	for i := 1; i < len(res.Entries); i++ {
		if res.Entries[i-1].DN().Norm() > res.Entries[i].DN().Norm() {
			t.Error("paged result not in DN order")
		}
	}
}

// TestPagedSearchReferences: a paged search returns the search references
// an unpaged one does, once, with its last page.
func TestPagedSearchReferences(t *testing.T) {
	st, err := dit.NewStore([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*entry.Entry{
		entry.New(dn.MustParse("o=xyz")).Put("objectclass", "organization").Put("o", "xyz"),
		entry.New(dn.MustParse("c=us,o=xyz")).Put("objectclass", "country").Put("c", "us"),
		entry.New(dn.MustParse("cn=fred,c=us,o=xyz")).Put("objectclass", "person").Put("cn", "fred"),
		entry.New(dn.MustParse("c=in,o=xyz")).Put("objectclass", dit.ReferralClass).Put(dit.RefAttr, "ldap://hostC/c=in,o=xyz"),
	} {
		if err := st.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	srv, _ := startServer(t, st)
	c := dialT(t, srv.Addr())
	q := query.MustNew("o=xyz", query.ScopeSubtree, "(objectclass=*)")
	plain, err := c.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	paged, err := c.SearchPaged(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	dns := func(res *SearchResult) string {
		var out []string
		for _, e := range res.Entries {
			out = append(out, e.DN().Norm())
		}
		sort.Strings(out)
		return strings.Join(out, " ")
	}
	if got, want := dns(paged), dns(plain); got != want || len(plain.Entries) != 3 {
		t.Errorf("paged entries %s, plain %s (want 3)", got, want)
	}
	if got, want := fmt.Sprint(paged.Referrals), fmt.Sprint(plain.Referrals); got != want || want != "[ldap://hostC/c=in,o=xyz]" {
		t.Errorf("paged referrals %s, plain %s", got, want)
	}
}

func TestPagedSearchWithSort(t *testing.T) {
	store := newTestStore(t)
	srv, _ := startServer(t, store)
	c := dialT(t, srv.Addr())

	// Page with a sort control attached: ordering must follow the sort key
	// (descending serial), stable across pages.
	q := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)")
	before := c.RoundTrips()
	res, err := c.SearchPaged(q, 2, proto.NewSortControl(proto.SortKey{Attr: "serialnumber", Reverse: true}))
	if err != nil {
		t.Fatal(err)
	}
	var all []string
	for _, e := range res.Entries {
		all = append(all, e.First("serialnumber"))
	}
	if len(all) != 5 {
		t.Fatalf("entries = %d", len(all))
	}
	if got := c.RoundTrips() - before; got != 3 {
		t.Errorf("round trips = %d, want 3 pages of 2", got)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] < all[i] {
			t.Errorf("sorted paging out of order: %v", all)
		}
	}
}

func TestPagedSearchBadCookie(t *testing.T) {
	store := newTestStore(t)
	srv, _ := startServer(t, store)
	c := dialT(t, srv.Addr())
	q := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)")
	_, err := c.Search(q, proto.NewPagedControl(2, "not-a-number"))
	var re *ResultError
	if !errors.As(err, &re) || re.Code != proto.ResultProtocolError {
		t.Errorf("bad cookie: %v", err)
	}
}
