// Command quickstart builds a small enterprise DIT, replicates a
// generalized filter to a filter-based replica, keeps it synchronized with
// the master, and shows which queries the replica can answer.
package main

import (
	"fmt"
	"log"

	"filterdir"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A master directory holding the o=xyz naming context.
	master, err := filterdir.NewDirectory([]string{"o=xyz"},
		filterdir.WithIndexes("serialnumber", "mail"))
	if err != nil {
		return err
	}
	add := func(dnStr string, attrs map[string][]string) error {
		e := filterdir.NewEntry(filterdir.MustParseDN(dnStr))
		for k, v := range attrs {
			e.Put(k, v...)
		}
		return master.Add(e)
	}
	if err := add("o=xyz", map[string][]string{"objectclass": {"organization"}, "o": {"xyz"}}); err != nil {
		return err
	}
	for _, cc := range []string{"us", "in"} {
		if err := add("c="+cc+",o=xyz", map[string][]string{"objectclass": {"country"}, "c": {cc}}); err != nil {
			return err
		}
	}
	// Employees appear flat under their country entry; serial numbers are
	// structured (country code + department block + sequence).
	people := []struct{ cc, cn, serial string }{
		{"us", "John Doe", "100401"},
		{"us", "Jane Roe", "100402"},
		{"us", "Carl Miller", "100501"},
		{"in", "Asha Rao", "110403"},
	}
	for _, p := range people {
		err := add(fmt.Sprintf("cn=%s,c=%s,o=xyz", p.cn, p.cc), map[string][]string{
			"objectclass":  {"person", "inetOrgPerson"},
			"cn":           {p.cn},
			"sn":           {p.cn},
			"serialNumber": {p.serial},
			"mail":         {p.cn + "@" + p.cc + ".xyz.com"},
		})
		if err != nil {
			return err
		}
	}

	// Replicate the generalized filter (serialNumber=<cc>04*) — the region
	// of semantic locality — over the whole DIT (null base answers
	// minimally directory-enabled applications).
	replica, err := filterdir.NewFilterReplica()
	if err != nil {
		return err
	}
	engine := filterdir.NewSyncEngine(master)
	stored := filterdir.MustParseQuery("", filterdir.ScopeSubtree, "(|(serialNumber=1004*)(serialNumber=1104*))")
	initial, err := engine.Begin(stored)
	if err != nil {
		return err
	}
	replica.AddStored(stored, initial.Cookie)
	if err := replica.ApplySync(stored, initial.Updates); err != nil {
		return err
	}
	fmt.Printf("replicated %d of %d entries for %s\n\n",
		replica.EntryCount(), master.Len(), stored.FilterString())

	// Queries contained in the stored filter are answered locally — even
	// across country subtrees (semantic, not spatial, locality).
	queries := []string{
		"(serialNumber=100401)",
		"(serialNumber=110403)",
		"(serialNumber=100501)", // outside the replicated region → miss
	}
	for _, f := range queries {
		q := filterdir.MustParseQuery("", filterdir.ScopeSubtree, f)
		entries, hit, via := replica.Answer(q)
		if hit {
			fmt.Printf("HIT  %-24s -> %d entries (via %s)\n", f, len(entries), via)
		} else {
			fmt.Printf("MISS %-24s -> referral to master\n", f)
		}
	}

	// The master changes; one poll brings the replica back in sync.
	if err := master.Delete(filterdir.MustParseDN("cn=Jane Roe,c=us,o=xyz")); err != nil {
		return err
	}
	poll, err := engine.Poll(initial.Cookie)
	if err != nil {
		return err
	}
	if err := replica.ApplySync(stored, poll.Updates); err != nil {
		return err
	}
	fmt.Printf("\nafter master delete + poll: %d updates, replica holds %d entries\n",
		len(poll.Updates), replica.EntryCount())

	m := replica.Counters()
	fmt.Printf("replica metrics: %d queries, %d hits, hit ratio %.2f\n",
		m.Queries.Load(), m.Hits.Load(), m.HitRatio())
	return nil
}
