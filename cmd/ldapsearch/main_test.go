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

// TestOptionCombinations: -page composes with -sort, the pages following the
// sort order rather than the DN order paging alone uses, and -chase refuses
// either, since a chased result spans servers.
func TestOptionCombinations(t *testing.T) {
	st, err := dit.NewStore([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*entry.Entry{
		entry.New(dn.MustParse("o=xyz")).Put("objectclass", "organization").Put("o", "xyz"),
		entry.New(dn.MustParse("cn=a,o=xyz")).Put("objectclass", "person").Put("cn", "a").Put("serialnumber", "3"),
		entry.New(dn.MustParse("cn=b,o=xyz")).Put("objectclass", "person").Put("cn", "b").Put("serialnumber", "1"),
		entry.New(dn.MustParse("cn=c,o=xyz")).Put("objectclass", "person").Put("cn", "c").Put("serialnumber", "2"),
	} {
		if err := st.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := ldapnet.Serve("127.0.0.1:0", ldapnet.NewStoreBackend(st))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, tc := range []struct {
		name, sort string
		chase      bool
		page       int
		want       string // the DNs printed, in order
		wantErr    []string
	}{
		{name: "page with sort", sort: "-serialnumber", page: 2, want: "cn=a,o=xyz cn=c,o=xyz cn=b,o=xyz"},
		{name: "page of one with sort", sort: "serialnumber", page: 1, want: "cn=b,o=xyz cn=c,o=xyz cn=a,o=xyz"},
		{name: "chase with sort", sort: "cn", chase: true, wantErr: []string{"-chase", "-sort"}},
		{name: "chase with page", chase: true, page: 2, wantErr: []string{"-chase", "-page"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := stdout(t, func() error {
				return run(srv.Addr(), "o=xyz", "sub", "(serialnumber=*)", tc.sort, tc.chase, 0, tc.page, 0, nil)
			})
			if tc.wantErr != nil {
				if err == nil {
					t.Fatalf("no error; printed:\n%s", out)
				}
				for _, flag := range tc.wantErr {
					if !strings.Contains(err.Error(), flag) {
						t.Errorf("error %q does not name %s", err, flag)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var dns []string
			for _, line := range strings.Split(out, "\n") {
				if d, ok := strings.CutPrefix(line, "dn: "); ok {
					dns = append(dns, d)
				}
			}
			if got := strings.Join(dns, " "); got != tc.want {
				t.Errorf("printed %s, want %s", got, tc.want)
			}
		})
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
