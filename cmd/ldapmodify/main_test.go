package main

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/edgewrite"
	"filterdir/internal/entry"
	"filterdir/internal/ldapnet"
	"filterdir/internal/proto"
)

// referring serves a store but answers every modify with a referral to url,
// as an edge replica does for a write outside its filters.
type referring struct {
	ldapnet.Backend
	url string
}

func (b referring) Modify(*proto.ModifyRequest) error {
	return &ldapnet.ReferralError{URLs: []string{b.url}, Err: edgewrite.ErrRejected}
}

func newStore(t *testing.T) *dit.Store {
	t.Helper()
	st, err := dit.NewStore([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*entry.Entry{
		entry.New(dn.MustParse("o=xyz")).Put("objectclass", "organization").Put("o", "xyz"),
		entry.New(dn.MustParse("cn=a,o=xyz")).Put("objectclass", "person").Put("cn", "a").Put("sn", "a"),
	} {
		if err := st.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// listen opens a loopback listener for serve.
func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// serve serves backend on ln until the test ends.
func serve(t *testing.T, ln net.Listener, backend ldapnet.Backend) {
	t.Helper()
	srv := ldapnet.ServeListener(ln, backend)
	t.Cleanup(func() { _ = srv.Close() })
}

func modifyPager(host string, maxChase int) error {
	return run(host, "cn=a,o=xyz", false, false, "", "", kvList{"pager=1"}, nil, nil,
		netOptions{timeout: 2 * time.Second, maxChase: maxChase})
}

// TestFollowsReferralToMaster: a write the contacted server refers to the
// master is applied there; -max-chase 1 allows the one referral.
func TestFollowsReferralToMaster(t *testing.T) {
	store := newStore(t)
	masterLn, edgeLn := listen(t), listen(t)
	serve(t, masterLn, ldapnet.NewStoreBackend(store))
	serve(t, edgeLn, referring{ldapnet.NewStoreBackend(newStore(t)), "ldap://" + masterLn.Addr().String()})

	if err := modifyPager(edgeLn.Addr().String(), 1); err != nil {
		t.Fatal(err)
	}
	if e, _ := store.Get(dn.MustParse("cn=a,o=xyz")); strings.Join(e.Values("pager"), "") != "1" {
		t.Errorf("master entry after the chased write: %v", e)
	}
}

// TestReportsReferralCycle: two servers referring the write to each other
// fail it with ErrReferralLoop and the chain of both.
func TestReportsReferralCycle(t *testing.T) {
	lnA, lnB := listen(t), listen(t)
	a, b := lnA.Addr().String(), lnB.Addr().String()
	serve(t, lnA, referring{ldapnet.NewStoreBackend(newStore(t)), "ldap://" + b})
	serve(t, lnB, referring{ldapnet.NewStoreBackend(newStore(t)), "ldap://" + a})

	err := modifyPager(a, ldapnet.DefaultMaxChase)
	if !errors.Is(err, ldapnet.ErrReferralLoop) {
		t.Fatalf("err = %v, want ErrReferralLoop", err)
	}
	if !strings.Contains(err.Error(), a+" -> "+b+" revisits "+a) {
		t.Errorf("error does not render the chain: %q", err)
	}
}
