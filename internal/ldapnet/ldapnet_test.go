package ldapnet

import (
	"errors"
	"fmt"
	"testing"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/edgewrite"
	"filterdir/internal/entry"
	"filterdir/internal/metrics"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/resync"
	"filterdir/internal/resync/resynctest"
)

// startServer builds a store-backed server on a loopback port.
func startServer(t *testing.T, store *dit.Store) (*Server, *StoreBackend) {
	t.Helper()
	backend := NewStoreBackend(store)
	srv, err := Serve("127.0.0.1:0", backend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, backend
}

func newTestStore(t *testing.T) *dit.Store {
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
	for i := 0; i < 5; i++ {
		e := entry.New(dn.MustParse(fmt.Sprintf("cn=p%d,c=us,o=xyz", i)))
		e.Put("objectclass", "person", "inetOrgPerson").
			Put("cn", fmt.Sprintf("p%d", i)).Put("sn", "x").
			Put("serialNumber", fmt.Sprintf("04%02d", i))
		if err := st.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// bind sends a BindRequest on c and returns the server's answer as an
// error: the client has no Bind of its own, since no deployment binds.
func bind(c *Client, name, password string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, err := c.send(&proto.BindRequest{Version: 3, Name: name, Password: password})
	if err != nil {
		return err
	}
	m, err := c.read(id)
	if err != nil {
		return err
	}
	resp, ok := m.Op.(*proto.BindResponse)
	if !ok {
		return fmt.Errorf("ldap bind: unexpected response %T", m.Op)
	}
	if resp.Code != proto.ResultSuccess {
		return &ResultError{Code: resp.Code, Message: resp.Message}
	}
	return nil
}

// TestBindAndSearch: the server answers every bind with success, anonymous
// or not, and a search on the connection follows.
func TestBindAndSearch(t *testing.T) {
	srv, _ := startServer(t, newTestStore(t))
	for _, tc := range []struct{ name, dn, password string }{
		{"anonymous", "", ""},
		{"admin, any password", "cn=admin", "anything"},
		{"unknown dn", "cn=nobody,o=xyz", "secret"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := dialT(t, srv.Addr())
			if err := bind(c, tc.dn, tc.password); err != nil {
				t.Fatalf("bind as %q: %v", tc.dn, err)
			}
			res, err := c.Search(query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)"))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Entries) != 5 {
				t.Fatalf("entries = %d, want 5", len(res.Entries))
			}
			// Entries carry attributes.
			if res.Entries[0].First("objectclass") == "" {
				t.Error("entry attributes missing")
			}
		})
	}
}

func TestSearchErrors(t *testing.T) {
	srv, _ := startServer(t, newTestStore(t))
	c := dialT(t, srv.Addr())
	_, err := c.Search(query.MustNew("cn=missing,o=xyz", query.ScopeBase, ""))
	var re *ResultError
	if !errors.As(err, &re) || re.Code != proto.ResultNoSuchObject {
		t.Errorf("missing base error: %v", err)
	}
}

func TestUpdatesOverWire(t *testing.T) {
	store := newTestStore(t)
	srv, _ := startServer(t, store)
	c := dialT(t, srv.Addr())

	// Add.
	e := entry.New(dn.MustParse("cn=new,c=us,o=xyz"))
	e.Put("objectclass", "person").Put("cn", "new").Put("sn", "n")
	if err := c.Add(e); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(e.DN()); !ok {
		t.Fatal("added entry missing from store")
	}
	// Duplicate add surfaces the right code.
	err := c.Add(e)
	var re *ResultError
	if !errors.As(err, &re) || re.Code != proto.ResultEntryAlreadyExists {
		t.Errorf("duplicate add: %v", err)
	}

	// Modify.
	if err := c.Modify(e.DN(), []proto.ModifyChange{
		{Op: proto.ModifyOpReplace, Attr: proto.Attribute{Type: "sn", Values: []string{"renamed"}}},
	}); err != nil {
		t.Fatal(err)
	}
	got, _ := store.Get(e.DN())
	if got.First("sn") != "renamed" {
		t.Error("modify not applied")
	}

	// ModifyDN.
	if err := c.ModifyDN(e.DN(), dn.RDN{Attr: "cn", Value: "moved"}, dn.MustParse("c=us,o=xyz")); err != nil {
		t.Fatal(err)
	}
	moved := dn.MustParse("cn=moved,c=us,o=xyz")
	if _, ok := store.Get(moved); !ok {
		t.Fatal("modifyDN target missing")
	}

	// Delete.
	if err := c.Delete(moved); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(moved); ok {
		t.Error("delete not applied")
	}
}

func TestSyncOverWire(t *testing.T) {
	store := newTestStore(t)
	srv, _ := startServer(t, store)
	c := dialT(t, srv.Addr())

	spec := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)")
	res, err := c.Sync(spec, proto.ReSyncModePoll, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updates) != 5 || res.Cookie == "" {
		t.Fatalf("initial sync: %d updates, cookie %q", len(res.Updates), res.Cookie)
	}

	// Replica store applies the wire updates.
	rep, err := dit.NewStore([]string{""})
	if err != nil {
		t.Fatal(err)
	}
	ap := resync.NewApplier(rep)
	if err := ap.Apply(spec, &resync.PollResult{Updates: res.Updates}); err != nil {
		t.Fatal(err)
	}
	if ok, why := resynctest.Converged(store, rep, spec); !ok {
		t.Fatalf("not converged after wire sync: %s", why)
	}

	// Master changes; poll over the wire.
	if err := store.Modify(dn.MustParse("cn=p1,c=us,o=xyz"),
		[]dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{"changed"}}}); err != nil {
		t.Fatal(err)
	}
	if err := store.Delete(dn.MustParse("cn=p2,c=us,o=xyz")); err != nil {
		t.Fatal(err)
	}
	res, err = c.Sync(spec, proto.ReSyncModePoll, res.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updates) != 2 {
		t.Fatalf("poll updates = %d, want 2", len(res.Updates))
	}
	if err := ap.Apply(spec, &resync.PollResult{Updates: res.Updates}); err != nil {
		t.Fatal(err)
	}
	if ok, why := resynctest.Converged(store, rep, spec); !ok {
		t.Fatalf("not converged after poll: %s", why)
	}

	// End the session; a further poll errors.
	if err := c.End(res.Cookie); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sync(spec, proto.ReSyncModePoll, res.Cookie); err == nil {
		t.Error("poll after sync_end must fail")
	}
}

func TestSyncRetainOverWire(t *testing.T) {
	store := newTestStore(t)
	srv, _ := startServer(t, store)
	c := dialT(t, srv.Addr())

	spec := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)")
	res, err := c.Sync(spec, proto.ReSyncModePoll, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Modify(dn.MustParse("cn=p1,c=us,o=xyz"),
		[]dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{"v2"}}}); err != nil {
		t.Fatal(err)
	}
	ret, err := c.Sync(spec, proto.ReSyncModeRetain, res.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	retains, mods := 0, 0
	for _, u := range ret.Updates {
		switch u.Action {
		case resync.ActionRetain:
			retains++
		case resync.ActionModify:
			mods++
		}
	}
	if retains != 4 || mods != 1 {
		t.Errorf("retain sync: %d retains, %d modifies", retains, mods)
	}
}

func TestPersistOverWire(t *testing.T) {
	store := newTestStore(t)
	srv, _ := startServer(t, store)
	c := dialT(t, srv.Addr())

	spec := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)")
	res, err := c.Sync(spec, proto.ReSyncModePoll, "")
	if err != nil {
		t.Fatal(err)
	}

	ps, err := PersistWith(nil, srv.Addr(), spec, res.Cookie, DefaultTimeout, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	// A master-side add is pushed to the subscriber.
	e := entry.New(dn.MustParse("cn=pushed,c=us,o=xyz"))
	e.Put("objectclass", "person").Put("cn", "pushed").Put("sn", "p").Put("serialNumber", "0499")
	if err := store.Add(e); err != nil {
		t.Fatal(err)
	}
	u := <-ps.Updates
	if u.Action != resync.ActionAdd || u.Entry == nil || u.Entry.First("cn") != "pushed" {
		t.Fatalf("pushed update: %+v", u)
	}
}

func TestStaleSessionWireError(t *testing.T) {
	// A stale cookie must surface over the wire as the typed sentinel so
	// clients can distinguish "re-Begin" from retryable transport faults.
	store := newTestStore(t)
	srv, backend := startServer(t, store)
	c := dialT(t, srv.Addr())

	spec := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)")
	res, err := c.Sync(spec, proto.ReSyncModePoll, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.Engine.End(res.Cookie); err != nil {
		t.Fatal(err)
	}

	_, err = c.Sync(spec, proto.ReSyncModePoll, res.Cookie)
	if !errors.Is(err, resync.ErrNoSuchSession) {
		t.Fatalf("poll of ended session: err=%v, want resync.ErrNoSuchSession", err)
	}
	var re *ResultError
	if !errors.As(err, &re) || re.Code != proto.ResultESyncRefreshRequired {
		t.Errorf("result code = %v, want e-syncRefreshRequired", err)
	}
	if IsTransient(err) {
		t.Error("stale session classified as transient; supervisors would retry the dead cookie")
	}
}

func TestFigure2ReferralChasing(t *testing.T) {
	// Three servers jointly serving o=xyz (Figure 2): hostA holds the root
	// context with referrals; hostB holds ou=research,c=us,o=xyz; hostC
	// holds c=in,o=xyz. The client initially contacts hostB.
	storeA, err := dit.NewStore([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	add := func(st *dit.Store, dnStr string, attrs map[string][]string) {
		t.Helper()
		e := entry.New(dn.MustParse(dnStr))
		for k, v := range attrs {
			e.Put(k, v...)
		}
		if err := st.Add(e); err != nil {
			t.Fatalf("add %s: %v", dnStr, err)
		}
	}
	add(storeA, "o=xyz", map[string][]string{"objectclass": {"organization"}, "o": {"xyz"}})
	add(storeA, "c=us,o=xyz", map[string][]string{"objectclass": {"country"}, "c": {"us"}})
	add(storeA, "cn=Fred Jones,c=us,o=xyz", map[string][]string{
		"objectclass": {"person"}, "cn": {"Fred Jones"}, "sn": {"Jones"}})
	add(storeA, "ou=research,c=us,o=xyz", map[string][]string{
		"objectclass": {dit.ReferralClass}, dit.RefAttr: {"ldap://hostB/ou=research,c=us,o=xyz"}})
	add(storeA, "c=in,o=xyz", map[string][]string{
		"objectclass": {dit.ReferralClass}, dit.RefAttr: {"ldap://hostC/c=in,o=xyz"}})

	storeB, err := dit.NewStore([]string{"ou=research,c=us,o=xyz"}, dit.WithDefaultReferral("ldap://hostA"))
	if err != nil {
		t.Fatal(err)
	}
	add(storeB, "ou=research,c=us,o=xyz", map[string][]string{"objectclass": {"organizationalUnit"}, "ou": {"research"}})
	add(storeB, "cn=John Doe,ou=research,c=us,o=xyz", map[string][]string{
		"objectclass": {"person", "inetOrgPerson"}, "cn": {"John Doe"}, "sn": {"Doe"}})
	add(storeB, "cn=Carl Miller,ou=research,c=us,o=xyz", map[string][]string{
		"objectclass": {"person"}, "cn": {"Carl Miller"}, "sn": {"Miller"}})

	storeC, err := dit.NewStore([]string{"c=in,o=xyz"}, dit.WithDefaultReferral("ldap://hostA"))
	if err != nil {
		t.Fatal(err)
	}
	add(storeC, "c=in,o=xyz", map[string][]string{"objectclass": {"country"}, "c": {"in"}})
	add(storeC, "cn=Asha,c=in,o=xyz", map[string][]string{
		"objectclass": {"person"}, "cn": {"Asha"}, "sn": {"A"}})

	srvA, _ := startServer(t, storeA)
	srvB, _ := startServer(t, storeB)
	srvC, _ := startServer(t, storeC)

	r := NewResolver()
	defer r.Close()
	r.Register("hostA", srvA.Addr())
	r.Register("hostB", srvB.Addr())
	r.Register("hostC", srvC.Addr())

	// Client sends the subtree search for o=xyz to hostB, as in Figure 2.
	res, err := r.SearchChasing("hostB", query.MustNew("o=xyz", query.ScopeSubtree, "(objectclass=*)"))
	if err != nil {
		t.Fatal(err)
	}
	// All 8 real entries across the three servers.
	if len(res.Entries) != 8 {
		names := make([]string, 0, len(res.Entries))
		for _, e := range res.Entries {
			names = append(names, e.DN().String())
		}
		t.Fatalf("entries = %d (%v), want 8", len(res.Entries), names)
	}
	// Figure 2 counts four round trips: hostB (referral), hostA (entries +
	// two references), hostB again, hostC.
	if got := r.RoundTrips(); got != 4 {
		t.Errorf("round trips = %d, want 4", got)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	store := newTestStore(t)
	srv, _ := startServer(t, store)
	c := dialT(t, srv.Addr())
	if err := bind(c, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Further operations fail rather than hang.
	if _, err := c.Search(query.MustNew("o=xyz", query.ScopeSubtree, "")); err == nil {
		t.Error("search after server close succeeded")
	}
}

func TestParseURL(t *testing.T) {
	host, base, err := ParseURL("ldap://hostB/ou=research,c=us,o=xyz")
	if err != nil || host != "hostB" || base.String() != "ou=research,c=us,o=xyz" {
		t.Errorf("ParseURL: %q %q %v", host, base, err)
	}
	host, base, err = ParseURL("ldap://hostA")
	if err != nil || host != "hostA" || !base.IsRoot() {
		t.Errorf("ParseURL bare: %q %q %v", host, base, err)
	}
	if _, _, err := ParseURL("http://x"); err == nil {
		t.Error("bad scheme accepted")
	}
	if _, _, err := ParseURL("ldap:///dn"); err == nil {
		t.Error("missing host accepted")
	}
}

// TestMasterRefusesEntryWithoutObjectClass: a master refuses a wire add
// without an objectclass value, and a wire modify that removes the last one,
// with objectClassViolation (65) and without changing; an edge write
// forwarded to it that breaks the rule is aborted at the replica as a
// permanent verdict.
func TestMasterRefusesEntryWithoutObjectClass(t *testing.T) {
	store := newTestStore(t)
	srv, _ := startServer(t, store)
	c := dialT(t, srv.Addr())
	csn := store.LastCSN()
	refused := func(what string, err error) {
		t.Helper()
		var re *ResultError
		if !errors.As(err, &re) || re.Code != proto.ResultObjectClassViolation {
			t.Errorf("%s: %v, want objectClassViolation", what, err)
		}
		if store.LastCSN() != csn {
			t.Errorf("%s: master committed CSN %d", what, store.LastCSN())
		}
	}

	bare := entry.New(dn.MustParse("cn=x,c=us,o=xyz"))
	bare.Put("cn", "x")
	refused("add without objectclass", c.Add(bare))
	if _, ok := store.Get(bare.DN()); ok {
		t.Error("master holds the refused add")
	}
	p0 := dn.MustParse("cn=p0,c=us,o=xyz")
	refused("modify removing objectclass", c.Modify(p0, []proto.ModifyChange{
		{Op: proto.ModifyOpDelete, Attr: proto.Attribute{Type: "objectClass"}},
	}))
	if e, _ := store.Get(p0); !e.HasObjectClass("person") {
		t.Errorf("refused modify changed %s: %s", p0, e)
	}

	fwd := NewEdgeForwarder(srv.Addr())
	defer fwd.Close()
	counters := &metrics.WriteCounters{}
	w, err := edgewrite.Open(edgewrite.Config{
		Dir:      t.TempDir(),
		Forward:  fwd,
		Lookup:   store.Get,
		Counters: counters,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	_, err = w.Submit(dit.Change{Type: dit.ChangeAdd, DN: bare.DN(), After: bare})
	refused("edge-forwarded add without objectclass", err)
	if got := counters.Rejected.Load(); got != 1 {
		t.Errorf("writer rejected %d ops, want 1", got)
	}
	if n := w.Pending(); n != 0 {
		t.Errorf("%d ops pending after the master's verdict, want 0", n)
	}
}
