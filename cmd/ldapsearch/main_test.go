package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/ldapnet"
	"filterdir/internal/replica"
)

// TestChaseAtReplica: -chase at a replica follows its referral for a query
// it misses to the master, named in the URL by its address, and prints the
// master's entries.
func TestChaseAtReplica(t *testing.T) {
	st, err := dit.NewStore([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*entry.Entry{
		entry.New(dn.MustParse("o=xyz")).Put("objectclass", "organization").Put("o", "xyz"),
		entry.New(dn.MustParse("cn=b,o=xyz")).Put("objectclass", "person").Put("cn", "b").Put("serialnumber", "2001"),
	} {
		if err := st.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	master, err := ldapnet.Serve("127.0.0.1:0", ldapnet.NewStoreBackend(st))
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	rep, err := replica.NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ldapnet.Serve("127.0.0.1:0", ldapnet.NewReplicaBackend(rep, "ldap://"+master.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	out, err := stdout(t, func() error {
		return run(srv.Addr(), "o=xyz", "sub", "(serialnumber=2*)", "", true, 0, 0, 0, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "dn: cn=b,o=xyz") {
		t.Errorf("output lacks the master's entry:\n%s", out)
	}
}

// stdout runs f and returns what it printed to standard output.
func stdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	ferr := f()
	os.Stdout = saved
	_ = w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), ferr
}
