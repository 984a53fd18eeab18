package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"filterdir/internal/cascade"
	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/ldapnet"
	"filterdir/internal/resync"
)

func mustParse(t *testing.T, args ...string) options {
	t.Helper()
	fs := flag.NewFlagSet("ldapreplica", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parseFlags(fs, args)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestLeafJournalBounded: a leaf applies updates for the life of the
// process and nothing ever reads its store's journal, so the journal must
// stay at its bound however many updates land; -serve -journal-limit sets
// the bound of a mid-tier, whose engine does read it.
func TestLeafJournalBounded(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		bound int
	}{
		{nil, leafJournalLimit},
		{[]string{"-serve", "-journal-limit", "500"}, 500},
	} {
		o := mustParse(t, append([]string{"-filter", "(objectclass=person)"}, tc.args...)...)
		tier, err := cascade.New(tierConfig(o))
		if err != nil {
			t.Fatal(err)
		}
		rep, spec := tier.Replica(), o.specs[0]
		rep.AddStored(spec, "")
		const rounds, perRound = 40, 100
		for r := 0; r < rounds; r++ {
			updates := make([]resync.Update, perRound)
			for i := range updates {
				e := entry.New(dn.MustParse(fmt.Sprintf("cn=p%d,o=xyz", i)))
				e.Put("objectclass", "person").Put("cn", fmt.Sprintf("p%d", i)).Put("sn", fmt.Sprint(r))
				updates[i] = resync.Update{Action: resync.ActionModify, DN: e.DN(), Entry: e}
			}
			if err := rep.ApplySync(spec, updates); err != nil {
				t.Fatal(err)
			}
		}
		if err := tier.Stop(); err != nil {
			t.Fatal(err)
		}
		st := rep.Store()
		if got := st.LastCSN(); got < rounds*perRound {
			t.Fatalf("%q: store CSN = %d after %d updates", tc.args, got, rounds*perRound)
		}
		if _, ok := st.ChangesSince(0); ok {
			t.Errorf("%q: journal still reaches back to the first update", tc.args)
		}
		held, ok := st.ChangesSince(st.LastCSN() - dit.CSN(tc.bound))
		if !ok || len(held) != tc.bound {
			t.Errorf("%q: journal holds %d records (covered=%v), want the last %d", tc.args, len(held), ok, tc.bound)
		}
		if got := st.JournalTrimmed(); got != uint64(rounds*perRound-tc.bound) {
			t.Errorf("%q: journal trimmed %d records, want %d", tc.args, got, rounds*perRound-tc.bound)
		}
	}
}

// TestModeOnlyFlagsNeedTheirMode: a flag only the mid-tier (or its adaptive
// control plane) reads is refused when set without that mode, instead of
// being silently ignored; with the mode, or left at its default, it parses.
// A deleted flag is refused with any mode.
func TestModeOnlyFlagsNeedTheirMode(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		refuse bool
	}{
		{nil, false},
		{[]string{"-journal-limit", "10"}, true},
		{[]string{"-reload-chunk", "20"}, true},
		{[]string{"-depth", "2"}, true},
		{[]string{"-adaptive"}, true},
		{[]string{"-tier-budget", "5"}, true},
		{[]string{"-serve", "-tier-budget", "5"}, true},
		{[]string{"-serve", "-journal-limit", "10", "-reload-chunk", "20", "-depth", "2"}, false},
		// The history knobs are gone in every mode.
		{[]string{"-serve", "-keep-sync-points", "4"}, true},
		{[]string{"-state", "dir", "-journal-retention", "bytes=64m"}, true},
		{[]string{"-serve", "-adaptive", "-tier-budget", "5"}, false},
		{[]string{"-mode", "persist", "-state", "dir", "-edge-writes"}, false},
	} {
		name := strings.Join(tc.args, " ")
		if name == "" {
			name = "no flags"
		}
		t.Run(name, func(t *testing.T) {
			fs := flag.NewFlagSet("ldapreplica", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			_, err := parseFlags(fs, tc.args)
			if (err != nil) != tc.refuse {
				t.Errorf("%q: err = %v, want refused %v", tc.args, err, tc.refuse)
			}
		})
	}
}

// TestStateResumesAsLeafOrTier: a leaf and a -serve mid-tier keep their
// state in one layout, so a state directory a leaf wrote restores into
// either. Each restart resumes the master session with a poll: its
// supervisor reads begins=0 resumes=1, and the master serves no second
// Begin.
func TestStateResumesAsLeafOrTier(t *testing.T) {
	st, err := dit.NewStore([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	org := entry.New(dn.MustParse("o=xyz"))
	org.Put("objectclass", "organization").Put("o", "xyz")
	if err := st.Add(org); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		e := entry.New(dn.MustParse(fmt.Sprintf("cn=p%d,o=xyz", i)))
		e.Put("objectclass", "person").Put("cn", fmt.Sprintf("p%d", i)).Put("sn", "x").
			Put("serialnumber", fmt.Sprintf("%02d", i))
		if err := st.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	backend := ldapnet.NewStoreBackend(st)
	master, err := ldapnet.Serve("127.0.0.1:0", backend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = master.Close() })
	served := backend.SyncCounters()
	dir := t.TempDir()

	// run starts a replica on dir, waits until the master has served it two
	// polls (so the exchange before them is committed), stops it and
	// returns its final status report.
	run := func(extra ...string) string {
		t.Helper()
		o := mustParse(t, append([]string{"-master", master.Addr(), "-addr", "127.0.0.1:0",
			"-filter", "(serialnumber=1*)", "-interval", "5ms", "-backoff", "1ms",
			"-state", dir}, extra...)...)
		polls := served.Polls.Load()
		srv, stop, status, err := start(o)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for served.Polls.Load() < polls+2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		_ = srv.Close()
		stop()
		if n := served.Polls.Load() - polls; n < 2 {
			t.Fatalf("%q: master served %d polls in 10s", extra, n)
		}
		var out bytes.Buffer
		status(&out)
		return out.String()
	}

	if out := run(); !strings.Contains(out, "10 entries") || !strings.Contains(out, "begins=1 resumes=0 ") {
		t.Fatalf("first run, want 10 entries from one Begin:\n%s", out)
	}
	for _, extra := range [][]string{nil, {"-serve"}} {
		if out := run(extra...); !strings.Contains(out, "10 entries") || !strings.Contains(out, "begins=0 resumes=1 ") {
			t.Errorf("restart %q, want 10 entries resumed by poll:\n%s", extra, out)
		}
		if got := served.Begins.Load(); got != 1 {
			t.Errorf("restart %q: master served %d Begins, want the first run's 1", extra, got)
		}
	}
	links, err := os.ReadDir(filepath.Join(dir, "cascade", "links"))
	if err != nil || len(links) != 1 {
		t.Errorf("state holds %d link directories (%v), want 1", len(links), err)
	}
}
