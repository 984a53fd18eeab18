package main

import (
	"flag"
	"fmt"
	"io"
	"testing"

	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
	"filterdir/internal/resync"
)

// TestLeafJournalBounded: a leaf applies updates for the life of the
// process and nothing ever reads its store's journal, so the journal must
// stay at its bound however many updates land.
func TestLeafJournalBounded(t *testing.T) {
	rep, err := newLeafReplica()
	if err != nil {
		t.Fatal(err)
	}
	spec := query.MustNew("o=xyz", query.ScopeSubtree, "(objectclass=person)")
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
	st := rep.Store()
	if got := st.LastCSN(); got < rounds*perRound {
		t.Fatalf("store CSN = %d after %d updates", got, rounds*perRound)
	}
	if _, ok := st.ChangesSince(0); ok {
		t.Error("journal still reaches back to the first update")
	}
	held, ok := st.ChangesSince(st.LastCSN() - leafJournalLimit)
	if !ok || len(held) != leafJournalLimit {
		t.Errorf("journal holds %d records (covered=%v), want the last %d", len(held), ok, leafJournalLimit)
	}
	if got := st.JournalTrimmed(); got != rounds*perRound-leafJournalLimit {
		t.Errorf("journal trimmed %d records, want %d", got, rounds*perRound-leafJournalLimit)
	}
}

// TestModeOnlyFlagsNeedTheirMode: a flag only the mid-tier (or its adaptive
// control plane) reads is refused when set without that mode, instead of
// being silently ignored; with the mode, or left at its default, it parses.
func TestModeOnlyFlagsNeedTheirMode(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		refuse bool
	}{
		{nil, false},
		{[]string{"-journal-limit", "10"}, true},
		{[]string{"-reload-chunk", "20"}, true},
		{[]string{"-keep-sync-points", "4"}, true},
		{[]string{"-depth", "2"}, true},
		{[]string{"-adaptive"}, true},
		{[]string{"-tier-budget", "5"}, true},
		{[]string{"-serve", "-tier-budget", "5"}, true},
		{[]string{"-serve", "-journal-limit", "10", "-reload-chunk", "20", "-keep-sync-points", "4", "-depth", "2"}, false},
		{[]string{"-serve", "-adaptive", "-tier-budget", "5"}, false},
		{[]string{"-mode", "persist", "-state", "dir", "-edge-writes"}, false},
	} {
		fs := flag.NewFlagSet("ldapreplica", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err := parseFlags(fs, tc.args)
		if (err != nil) != tc.refuse {
			t.Errorf("%q: err = %v, want refused %v", tc.args, err, tc.refuse)
		}
	}
}
