package filterdir_test

import (
	"fmt"
	"slices"
	"testing"

	"filterdir"
	"filterdir/internal/metrics"
	"filterdir/internal/proto"
	"filterdir/internal/resync"
)

// Example_quickStart replicates one query from a directory to a filter
// replica and answers it there. The suffix entry goes in first: an entry's
// parent must exist before it.
func Example_quickStart() {
	store, _ := filterdir.NewDirectory([]string{"o=xyz"})
	suffix := filterdir.NewEntry(filterdir.MustParseDN("o=xyz"))
	suffix.Put("objectclass", "organization").Put("o", "xyz")
	e := filterdir.NewEntry(filterdir.MustParseDN("cn=a,o=xyz"))
	e.Put("objectclass", "person").Put("cn", "a").Put("sn", "a")
	fmt.Println(store.Add(suffix), store.Add(e))

	rep, _ := filterdir.NewFilterReplica()
	eng := filterdir.NewSyncEngine(store)
	q := filterdir.MustParseQuery("", filterdir.ScopeSubtree, "(sn=a)")
	res, _ := eng.Begin(q)
	rep.AddStored(q, res.Cookie)
	fmt.Println(rep.ApplySync(q, res.Updates))
	entries, hit, _ := rep.Answer(q)
	fmt.Println(len(entries), hit)
	// Output:
	// <nil> <nil>
	// <nil>
	// 1 true
}

// buildMaster populates a small enterprise master through the public API.
func buildMaster(t *testing.T) *filterdir.Directory {
	t.Helper()
	master, err := filterdir.NewDirectory([]string{"o=xyz"},
		filterdir.WithIndexes("serialnumber", "mail"))
	if err != nil {
		t.Fatal(err)
	}
	add := func(dnStr string, attrs map[string][]string) {
		t.Helper()
		e := filterdir.NewEntry(filterdir.MustParseDN(dnStr))
		for k, v := range attrs {
			e.Put(k, v...)
		}
		if err := master.Add(e); err != nil {
			t.Fatalf("add %s: %v", dnStr, err)
		}
	}
	add("o=xyz", map[string][]string{"objectclass": {"organization"}, "o": {"xyz"}})
	add("c=us,o=xyz", map[string][]string{"objectclass": {"country"}, "c": {"us"}})
	add("c=in,o=xyz", map[string][]string{"objectclass": {"country"}, "c": {"in"}})
	for i := 0; i < 6; i++ {
		cc := "us"
		if i >= 4 {
			cc = "in"
		}
		add(fmt.Sprintf("cn=p%d,c=%s,o=xyz", i, cc), map[string][]string{
			"objectclass":  {"top", "person", "organizationalPerson", "inetOrgPerson"},
			"cn":           {fmt.Sprintf("p%d", i)},
			"sn":           {fmt.Sprintf("s%d", i)},
			"serialNumber": {fmt.Sprintf("%s04%02d", map[string]string{"us": "10", "in": "11"}[cc], i)},
			"mail":         {fmt.Sprintf("p%d@%s.xyz.com", i, cc)},
		})
	}
	return master
}

// TestPublicAPIEndToEnd drives the whole stack through the facade: a master
// served over TCP, a filter replica synchronized over the wire, containment
// answering, and update propagation.
func TestPublicAPIEndToEnd(t *testing.T) {
	master := buildMaster(t)

	srv, err := filterdir.ServeDirectory("127.0.0.1:0", master)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := filterdir.DialDirectory(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Replicate the cross-country generalized filter over the wire.
	rep, err := filterdir.NewFilterReplica(filterdir.WithCacheCapacity(4))
	if err != nil {
		t.Fatal(err)
	}
	spec := filterdir.MustParseQuery("", filterdir.ScopeSubtree, "(|(serialNumber=1004*)(serialNumber=1104*))")
	sync, err := client.Sync(spec, proto.ReSyncModePoll, "")
	if err != nil {
		t.Fatal(err)
	}
	rep.AddStored(spec, sync.Cookie)
	if err := rep.ApplySync(spec, sync.Updates); err != nil {
		t.Fatal(err)
	}
	if rep.EntryCount() != 6 {
		t.Fatalf("replica holds %d entries, want 6", rep.EntryCount())
	}

	// Containment-based answering, spanning both country subtrees.
	entries, hit, _ := rep.Answer(filterdir.MustParseQuery("", filterdir.ScopeSubtree, "(serialNumber=110404)"))
	if !hit || len(entries) != 1 || entries[0].First("cn") != "p4" {
		t.Fatalf("cross-country answer: hit=%v entries=%v", hit, entries)
	}
	if _, hit, _ := rep.Answer(filterdir.MustParseQuery("", filterdir.ScopeSubtree, "(mail=p0@us.xyz.com)")); hit {
		t.Fatal("uncontained query must miss")
	}

	// A master-side update propagates through a wire poll.
	if err := master.Delete(filterdir.MustParseDN("cn=p1,c=us,o=xyz")); err != nil {
		t.Fatal(err)
	}
	poll, err := client.Sync(spec, proto.ReSyncModePoll, sync.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	if len(poll.Updates) != 1 || poll.Updates[0].Action != resync.ActionDelete {
		t.Fatalf("poll = %+v", poll.Updates)
	}
	if err := rep.ApplySync(spec, poll.Updates); err != nil {
		t.Fatal(err)
	}
	if rep.EntryCount() != 5 {
		t.Fatalf("replica holds %d entries after delete", rep.EntryCount())
	}

	// A query scoped under one country is contained in the null-base
	// stored query.
	q := filterdir.MustParseQuery("c=us,o=xyz", filterdir.ScopeSubtree, "(serialNumber=100400)")
	if entries, hit, _ := rep.Answer(q); !hit || len(entries) != 1 {
		t.Errorf("scoped answer: hit=%v entries=%v", hit, entries)
	}
}

func TestPublicAPISelection(t *testing.T) {
	master := buildMaster(t)
	gen := filterdir.NewGeneralizer(filterdir.PrefixRule("serialnumber", 4))
	sizeOf := func(q filterdir.Query) int { return len(master.MatchAll(q)) }
	sel := filterdir.NewSelector(gen, sizeOf, 10, 0)
	for i := 0; i < 8; i++ {
		sel.Observe(filterdir.MustParseQuery("", filterdir.ScopeSubtree, "(serialnumber=100401)"))
	}
	d := sel.ForceRevolution()
	if d == nil || len(d.Add) != 1 {
		t.Fatalf("revolution delta = %+v", d)
	}
	if got := d.Add[0].FilterString(); got != "(serialnumber=1004*)" {
		t.Errorf("selected filter = %s", got)
	}
}

func TestPublicAPIExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	cfg := filterdir.DefaultExperimentConfig()
	cfg.Employees = 1200
	cfg.MeasureQueries = 800
	cfg.WarmupQueries = 800
	cfg.Updates = 400
	fig, err := filterdir.RunExperiment("table1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(fig.Series, func(s *metrics.Series) bool { return s.Name == "measured %" }) {
		t.Error("experiment produced no measured series")
	}
}

func TestPublicAPIDurableDirectory(t *testing.T) {
	path := t.TempDir() + "/data"
	if err := (filterdir.DataDir{Path: path}).Checkpoint(buildMaster(t)); err != nil {
		t.Fatal(err)
	}
	dir, journal, err := filterdir.OpenDataDir(path, []string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Delete(filterdir.MustParseDN("cn=p0,c=us,o=xyz")); err != nil {
		t.Fatal(err)
	}
	// Dropped without a checkpoint: the acknowledged delete is durable.
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, journal, err := filterdir.OpenDataDir(path, []string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	if recovered.Len() != dir.Len() {
		t.Errorf("recovered %d entries, want %d", recovered.Len(), dir.Len())
	}
	if _, ok := recovered.Get(filterdir.MustParseDN("cn=p0,c=us,o=xyz")); ok {
		t.Error("acknowledged delete not recovered")
	}
	if recovered.LastCSN() != dir.LastCSN() {
		t.Errorf("recovered LastCSN %d, want %d", recovered.LastCSN(), dir.LastCSN())
	}
}

func TestPublicAPIPagedSearch(t *testing.T) {
	master := buildMaster(t)
	srv, err := filterdir.ServeDirectory("127.0.0.1:0", master)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := filterdir.DialDirectory(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.SearchPaged(filterdir.MustParseQuery("o=xyz", filterdir.ScopeSubtree, "(objectclass=inetorgperson)"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 6 {
		t.Errorf("paged entries = %d, want 6", len(res.Entries))
	}
	// Sorted search through the facade helper.
	sorted, err := c.SearchWith(
		filterdir.MustParseQuery("o=xyz", filterdir.ScopeSubtree, "(objectclass=inetorgperson)"),
		filterdir.NewSortControl(filterdir.SortKey{Attr: "serialnumber", Reverse: true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(sorted.Entries) != 6 {
		t.Fatalf("sorted entries = %d", len(sorted.Entries))
	}
	if sorted.Entries[0].First("serialnumber") < sorted.Entries[5].First("serialnumber") {
		t.Error("descending sort not applied")
	}
}
