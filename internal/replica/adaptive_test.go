package replica

import (
	"fmt"
	"testing"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
	"filterdir/internal/resync"
	"filterdir/internal/selection"
)

// adaptiveFixture builds a master with two serial blocks of five persons
// each (040x and 050x) and an adaptive replica selecting 3-character prefix
// filters under the given budget.
func adaptiveFixture(t *testing.T, budget, interval int) (*dit.Store, *AdaptiveReplica) {
	t.Helper()
	master, err := dit.NewStore([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	addAdaptive := func(dnStr string, attrs map[string]string, classes ...string) {
		t.Helper()
		e := entry.New(dn.MustParse(dnStr))
		e.Put("objectclass", classes...)
		for k, v := range attrs {
			e.Put(k, v)
		}
		if err := master.Add(e); err != nil {
			t.Fatalf("add %s: %v", dnStr, err)
		}
	}
	addAdaptive("o=xyz", map[string]string{"o": "xyz"}, "organization")
	addAdaptive("c=us,o=xyz", map[string]string{"c": "us"}, "country")
	for block := 4; block <= 5; block++ {
		for i := 0; i < 5; i++ {
			cn := fmt.Sprintf("b%d-%d", block, i)
			addAdaptive(fmt.Sprintf("cn=%s,c=us,o=xyz", cn), map[string]string{
				"cn": cn, "sn": cn,
				"serialnumber": fmt.Sprintf("0%d0%d", block, i),
				"div":          "sw",
			}, "person", "inetOrgPerson")
		}
	}
	rep, err := NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	gen := selection.NewGeneralizer(selection.PrefixRule{Attr: "serialnumber", PrefixLen: 3})
	sizeOf := func(q query.Query) int { return len(master.MatchAll(q)) }
	sel := selection.NewSelector(gen, sizeOf, budget, interval)
	return master, NewAdaptiveReplica(rep, sel, resync.NewEngine(master))
}

func TestAdaptiveReplicaLearnsHotRegion(t *testing.T) {
	_, ar := adaptiveFixture(t, 8, 5)
	hot := query.MustNew("", query.ScopeSubtree, "(serialnumber=0403)")

	// The first queries miss; after a revolution the block filter (040*)
	// is installed and subsequent queries hit.
	var hits int
	for i := 0; i < 20; i++ {
		hit, err := ar.Serve(hot)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			hits++
		}
	}
	if hits < 10 {
		t.Fatalf("adaptive replica never learned: %d hits of 20", hits)
	}
	if len(ar.StoredFilters()) == 0 {
		t.Fatal("no filters stored")
	}
	if ar.FetchTraffic.Updates() == 0 {
		t.Error("fetch traffic not accounted")
	}
}

func TestAdaptiveReplicaSyncAll(t *testing.T) {
	master, ar := adaptiveFixture(t, 8, 3)
	hot := query.MustNew("", query.ScopeSubtree, "(serialnumber=0401)")
	for i := 0; i < 6; i++ {
		if _, err := ar.Serve(hot); err != nil {
			t.Fatal(err)
		}
	}
	if len(ar.StoredFilters()) == 0 {
		t.Fatal("setup: no stored filters")
	}
	// Master-side change inside the stored content propagates on SyncAll.
	if err := master.Modify(dn.MustParse("cn=b4-1,c=us,o=xyz"),
		[]dit.Mod{{Op: dit.ModReplace, Attr: "div", Values: []string{"changed"}}}); err != nil {
		t.Fatal(err)
	}
	if err := ar.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if ar.ResyncTraffic.Modifies != 1 {
		t.Errorf("resync traffic = %+v, want 1 modify", ar.ResyncTraffic)
	}
	entries, hit, _ := ar.Replica.Answer(hot)
	if !hit || len(entries) != 1 || entries[0].First("div") != "changed" {
		t.Fatalf("stale content after SyncAll: %v", entries)
	}
}

func TestAdaptiveReplicaClose(t *testing.T) {
	_, ar := adaptiveFixture(t, 8, 3)
	hot := query.MustNew("", query.ScopeSubtree, "(serialnumber=0401)")
	for i := 0; i < 6; i++ {
		if _, err := ar.Serve(hot); err != nil {
			t.Fatal(err)
		}
	}
	eng := ar.Supplier.(*resync.Engine)
	if eng.Sessions() == 0 {
		t.Fatal("setup: no sessions")
	}
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	if eng.Sessions() != 0 {
		t.Errorf("sessions leaked after Close: %d", eng.Sessions())
	}
}

func TestAdaptiveReplicaEviction(t *testing.T) {
	// Budget of 5 holds exactly one block of five entries.
	master, ar := adaptiveFixture(t, 5, 6)
	_ = master
	// Phase 1: block 040x hot.
	q1 := query.MustNew("", query.ScopeSubtree, "(serialnumber=0401)")
	for i := 0; i < 6; i++ {
		if _, err := ar.Serve(q1); err != nil {
			t.Fatal(err)
		}
	}
	first := fmt.Sprintf("%v", ar.StoredFilters())
	// Phase 2: block 050x hot; the budget of 4 forces eviction.
	q2 := query.MustNew("", query.ScopeSubtree, "(serialnumber=0501)")
	for i := 0; i < 12; i++ {
		if _, err := ar.Serve(q2); err != nil {
			t.Fatal(err)
		}
	}
	second := fmt.Sprintf("%v", ar.StoredFilters())
	if first == second {
		t.Errorf("stored set did not adapt: %s", second)
	}
	// Sessions track the stored set: one per filter.
	eng := ar.Supplier.(*resync.Engine)
	if got, want := eng.Sessions(), len(ar.StoredFilters()); got != want {
		t.Errorf("sessions = %d, stored filters = %d", got, want)
	}
}
