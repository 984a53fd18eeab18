package main

import (
	"fmt"
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
