package main

import (
	"flag"
	"io"
	"testing"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/resync"
)

// TestJournalLimitDefault: a master keeps as much change history in memory
// as a serving tier does, not every change it ever took; a session that lags
// past it is answered with a full reload. -journal-limit 0 still means
// unbounded.
func TestJournalLimitDefault(t *testing.T) {
	const writes = resync.DefaultJournalLimit + 100
	for _, tc := range []struct {
		name string
		args []string
		held int
	}{
		{"default", nil, resync.DefaultJournalLimit},
		{"set", []string{"-journal-limit", "100"}, 100},
		{"unbounded", []string{"-journal-limit", "0"}, writes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("ldapmaster", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			o, err := parseFlags(fs, append([]string{"-employees", "20"}, tc.args...))
			if err != nil {
				t.Fatal(err)
			}
			st, err := initialDirectory(o.ldifPath, o.suffix, o.employees, o.seed, o.journalLimit, o.shards)
			if err != nil {
				t.Fatal(err)
			}
			probe := entry.New(dn.MustParse("cn=probe,o=xyz")).Put("objectclass", "person").Put("cn", "probe").Put("sn", "0")
			if err := st.Add(probe); err != nil {
				t.Fatal(err)
			}
			for i := 1; i < writes; i++ {
				if err := st.Modify(probe.DN(), []dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{"x"}}}); err != nil {
					t.Fatal(err)
				}
			}
			if _, ok := st.ChangesSince(st.LastCSN() - dit.CSN(tc.held) - 1); ok {
				t.Errorf("%q: journal holds more than the last %d changes", tc.args, tc.held)
			}
			if held, ok := st.ChangesSince(st.LastCSN() - dit.CSN(tc.held)); !ok || len(held) != tc.held {
				t.Errorf("%q: journal holds %d changes (covered=%v), want the last %d", tc.args, len(held), ok, tc.held)
			}
		})
	}
}

// TestDeletedFlagsRefused: the history knobs are gone; a command line that
// still passes one is refused, not silently run with the fixed rules.
func TestDeletedFlagsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-keep-sync-points", "128"},
		{"-data", "dir", "-journal-retention", "bytes=64m"},
	} {
		t.Run(args[len(args)-2], func(t *testing.T) {
			fs := flag.NewFlagSet("ldapmaster", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			if _, err := parseFlags(fs, args); err == nil {
				t.Errorf("%q parsed", args)
			}
		})
	}
}
