package ldapnet

import (
	"errors"
	"strings"
	"testing"

	"filterdir/internal/dn"
	"filterdir/internal/edgewrite"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/replica"
)

// serveEmptyReplica serves a replica holding no stored queries, so every
// search misses and is answered with a referral to masterURL.
func serveEmptyReplica(t *testing.T, masterURL string) *Server {
	t.Helper()
	rep, err := replica.NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", NewReplicaBackend(rep, masterURL))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

// TestReferralLoopDetected: two replicas referring every miss to each other
// form a referral cycle; the chasing resolver must detect the revisit and
// fail with the typed sentinel instead of recursing to the depth bound.
func TestReferralLoopDetected(t *testing.T) {
	srvA := serveEmptyReplica(t, "ldap://hostB")
	srvB := serveEmptyReplica(t, "ldap://hostA")

	r := NewResolver()
	defer r.Close()
	r.Register("hostA", srvA.Addr())
	r.Register("hostB", srvB.Addr())

	_, err := r.SearchChasing("hostA", query.MustNew("o=xyz", query.ScopeSubtree, "(cn=nobody)"))
	if !errors.Is(err, ErrReferralLoop) {
		t.Fatalf("err = %v, want ErrReferralLoop", err)
	}
	// The error narrates the chain so an operator can see the cycle.
	if msg := err.Error(); !strings.Contains(msg, "hostA -> hostB") {
		t.Errorf("error does not render the referral chain: %q", msg)
	}
	// Loop detection fires on the revisit: A, B, then the attempted return
	// to A — two round trips, not DefaultMaxChase.
	if got := r.RoundTrips(); got != 2 {
		t.Errorf("round trips = %d, want 2", got)
	}
}

// TestReferralLoopSameHostDifferentQuery: the visited set is keyed by
// (server, query), so a legitimate re-contact of an earlier host for a
// different subordinate query is NOT flagged as a loop. This is the
// Figure 2 topology shape, asserted against the loop detector directly.
func TestReferralLoopSameHostDifferentQuery(t *testing.T) {
	st := &chaseState{visited: make(map[string]bool)}
	q1 := query.MustNew("o=xyz", query.ScopeSubtree, "(objectclass=*)")
	q2 := query.MustNew("ou=research,c=us,o=xyz", query.ScopeSubtree, "(objectclass=*)")
	st.visited[chaseKey("hostA", q1.Key())] = true
	if st.visited[chaseKey("hostA", q2.Key())] {
		t.Fatal("distinct queries on one host must not collide in the visited set")
	}
	if !st.visited[chaseKey("hostA", q1.Key())] {
		t.Fatal("identical (host, query) pair must collide")
	}
}

// TestReferralDepthBound: a non-repeating chain longer than MaxDepth is cut
// off with a clear hop-count error rather than chased forever.
func TestReferralDepthBound(t *testing.T) {
	// hostA -> hostB -> hostC -> hostD: distinct hosts, so the visited set
	// never fires and only the depth bound can stop the chase.
	srvA := serveEmptyReplica(t, "ldap://hostB")
	srvB := serveEmptyReplica(t, "ldap://hostC")
	srvC := serveEmptyReplica(t, "ldap://hostD")
	srvD := serveEmptyReplica(t, "ldap://hostE")

	r := NewResolver()
	defer r.Close()
	r.MaxDepth = 2
	r.Register("hostA", srvA.Addr())
	r.Register("hostB", srvB.Addr())
	r.Register("hostC", srvC.Addr())
	r.Register("hostD", srvD.Addr())

	_, err := r.SearchChasing("hostA", query.MustNew("o=xyz", query.ScopeSubtree, "(cn=nobody)"))
	if err == nil {
		t.Fatal("unbounded chase succeeded, want depth error")
	}
	if errors.Is(err, ErrReferralLoop) {
		t.Fatalf("distinct-host chain misreported as loop: %v", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "exceeds 2 hops") {
		t.Errorf("error does not name the hop bound: %q", msg)
	}
	// hostA (depth 0), hostB (1), hostC (2); the hop to hostD would be
	// depth 3 and is refused before dialing.
	if got := r.RoundTrips(); got != 3 {
		t.Errorf("round trips = %d, want 3", got)
	}
}

// TestResolverDialsUnregisteredHost: a replica refers a miss to its master by
// the master's address; a resolver with nothing registered dials that host
// as an address and completes the search there.
func TestResolverDialsUnregisteredHost(t *testing.T) {
	master, _ := startServer(t, newTestStore(t))
	rep := serveEmptyReplica(t, "ldap://"+master.Addr())

	r := NewResolver()
	defer r.Close()
	res, err := r.SearchChasing(rep.Addr(), query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 5 {
		t.Errorf("entries = %d, want the master's 5", len(res.Entries))
	}
	if got := r.RoundTrips(); got != 2 {
		t.Errorf("round trips = %d, want 2 (replica miss + master)", got)
	}
}

// referringBackend answers every modify with a referral to url.
type referringBackend struct {
	Backend
	url string
}

func (b referringBackend) Modify(*proto.ModifyRequest) error {
	return &ReferralError{URLs: []string{b.url}, Err: edgewrite.ErrRejected}
}

// TestResolverChaseFollowsWriteReferral: Chase runs a write at each server in
// turn until one accepts it, and stops a write two servers refer to each
// other with ErrReferralLoop and the chain.
func TestResolverChaseFollowsWriteReferral(t *testing.T) {
	store := newTestStore(t)
	master, _ := startServer(t, store)
	serveReferring := func(url string) *Server {
		srv, err := Serve("127.0.0.1:0", referringBackend{NewStoreBackend(newTestStore(t)), url})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		return srv
	}
	edge := serveReferring("ldap://" + master.Addr())
	target := dn.MustParse("cn=p1,c=us,o=xyz")
	var asked []string
	modify := func(addr string) error {
		asked = append(asked, addr)
		c, err := Dial(addr)
		if err != nil {
			return err
		}
		defer c.Close()
		return c.Modify(target, []proto.ModifyChange{{Op: proto.ModifyOpReplace,
			Attr: proto.Attribute{Type: "pager", Values: []string{"7"}}}})
	}

	r := NewResolver()
	if err := r.Chase(edge.Addr(), modify); err != nil {
		t.Fatal(err)
	}
	if want := []string{edge.Addr(), master.Addr()}; strings.Join(asked, " ") != strings.Join(want, " ") {
		t.Errorf("asked %v, want %v", asked, want)
	}
	if e, _ := store.Get(target); e == nil || strings.Join(e.Values("pager"), "") != "7" {
		t.Errorf("master entry after the chased write: %v", e)
	}

	// Two servers referring the write to each other: A, B, then the
	// attempted return to A.
	r.Register("hostA", serveReferring("ldap://hostB").Addr())
	r.Register("hostB", serveReferring("ldap://hostA").Addr())
	asked = nil
	err := r.Chase("hostA", modify)
	if !errors.Is(err, ErrReferralLoop) {
		t.Fatalf("err = %v, want ErrReferralLoop", err)
	}
	if len(asked) != 2 || !strings.Contains(err.Error(), "hostA -> hostB revisits hostA") {
		t.Errorf("asked %v, error %q: want two servers and their chain", asked, err)
	}
}

// TestResolverDropsDeadConnection: a pooled connection to a server that died
// is not reused: re-registering the host to a new server, or the transport
// failure itself, makes the next chase dial afresh.
func TestResolverDropsDeadConnection(t *testing.T) {
	q := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)")
	first, _ := startServer(t, newTestStore(t))
	second, _ := startServer(t, newTestStore(t))
	r := NewResolver()
	defer r.Close()
	r.Register("master", first.Addr())
	if _, err := r.SearchChasing("master", q); err != nil {
		t.Fatal(err)
	}
	first.Close()
	r.Register("master", second.Addr())
	if _, err := r.SearchChasing("master", q); err != nil {
		t.Fatalf("chase after re-registering: %v", err)
	}

	// The server dies and comes back at the same address: the chase that
	// met the dead connection fails, the next one dials the new server.
	addr := second.Addr()
	second.Close()
	if _, err := r.SearchChasing("master", q); !IsTransient(err) {
		t.Fatalf("chase to a dead server: %v, want a transport error", err)
	}
	again, err := Serve(addr, NewStoreBackend(newTestStore(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if _, err := r.SearchChasing("master", q); err != nil {
		t.Fatalf("chase after the server came back: %v", err)
	}
}
