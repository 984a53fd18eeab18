// Command distributed runs the full deployment story in one process: a
// durable master served over TCP, an adaptive filter replica synchronizing
// over the wire, and clients using paged and server-side-sorted searches —
// with misses referred from the replica back to the master and chased
// transparently.
package main

import (
	"fmt"
	"log"
	"os"

	"filterdir"
	"filterdir/internal/ldapnet"
	"filterdir/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A durable master: state lives in a snapshot + journal directory, and
	// every write is committed there before it returns.
	dataPath, err := os.MkdirTemp("", "filterdir-distributed-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataPath)

	dir, err := filterdir.BuildEnterpriseDirectory(2000)
	if err != nil {
		return err
	}
	if err := (filterdir.DataDir{Path: dataPath}).Checkpoint(dir.Master); err != nil {
		return err
	}
	master, journal, err := filterdir.OpenDataDir(dataPath, []string{"o=xyz"}, filterdir.WithIndexes(dir.Config.IndexAttrs...))
	if err != nil {
		return err
	}
	defer journal.Close()
	fmt.Printf("master: %d entries, checkpointed to %s and reopened durable\n", master.Len(), dataPath)

	masterSrv, err := filterdir.ServeDirectory("127.0.0.1:0", master)
	if err != nil {
		return err
	}
	defer masterSrv.Close()

	// An adaptive replica synchronizes over the wire and serves its own
	// port; uncontained queries get a referral to the master.
	syncClient, err := filterdir.DialDirectory(masterSrv.Addr())
	if err != nil {
		return err
	}
	defer syncClient.Close()

	rep, err := filterdir.NewFilterReplica(filterdir.WithContentIndexes("serialnumber", "location"))
	if err != nil {
		return err
	}
	gen := filterdir.NewGeneralizer(filterdir.PrefixRule("serialnumber", workload.SerialPrefixLen))
	sizeOf := func(q filterdir.Query) int { return len(master.MatchAll(q)) }
	sel := filterdir.NewSelector(gen, sizeOf, dir.EmployeeCount/10, 200)
	ar := filterdir.NewAdaptiveReplica(rep, sel, syncClient)
	defer ar.Close()

	// Statically replicate the hot location tree.
	locQ := filterdir.MustParseQuery("", filterdir.ScopeSubtree, "(location=*)")
	if err := ar.AddFilter(locQ); err != nil {
		return err
	}

	replicaSrv, err := ldapnet.Serve("127.0.0.1:0",
		ldapnet.NewReplicaBackend(rep, "ldap://master"))
	if err != nil {
		return err
	}
	defer replicaSrv.Close()
	fmt.Printf("replica: serving on %s (misses referred to master)\n\n", replicaSrv.Addr())

	// Drive the serial workload through the adaptive loop so the replica
	// learns the hot blocks.
	g := workload.NewGenerator(dir, workload.DefaultTraceConfig())
	hits := 0
	for i := 0; i < 1200; i++ {
		hit, err := ar.Serve(g.NextOfKind(workload.KindSerial).Query)
		if err != nil {
			return err
		}
		if hit {
			hits++
		}
	}
	fmt.Printf("adaptive warm-up: %d/1200 hits, %d filters stored, %d entries replicated\n\n",
		hits, len(ar.StoredFilters()), rep.EntryCount())

	// A client resolver talks to the replica and follows its referrals.
	resolver := filterdir.NewResolver()
	defer resolver.Close()
	resolver.Register("replica", replicaSrv.Addr())
	resolver.Register("master", masterSrv.Addr())

	locHit, err := resolver.SearchChasing("replica",
		filterdir.MustParseQuery("", filterdir.ScopeSubtree, "(location=site007)"))
	if err != nil {
		return err
	}
	fmt.Printf("replica answered (location=site007): %d entry, %d total round trips\n",
		len(locHit.Entries), resolver.RoundTrips())

	miss, err := resolver.SearchChasing("replica",
		filterdir.MustParseQuery("o=xyz", filterdir.ScopeSubtree,
			fmt.Sprintf("(mail=%s)", dir.Employees[0].Mail)))
	if err != nil {
		return err
	}
	fmt.Printf("replica referred (mail=...): %d entry via master, %d total round trips\n\n",
		len(miss.Entries), resolver.RoundTrips())

	// Paged, server-side-sorted search straight at the master.
	pageClient, err := filterdir.DialDirectory(masterSrv.Addr())
	if err != nil {
		return err
	}
	defer pageClient.Close()
	paged, err := pageClient.SearchPaged(
		filterdir.MustParseQuery("ou=locations,o=xyz", filterdir.ScopeSubtree, "(objectclass=location)"), 8)
	if err != nil {
		return err
	}
	fmt.Printf("paged search: %d location entries in pages of 8 (%d round trips)\n",
		len(paged.Entries), pageClient.RoundTrips())

	sorted, err := pageClient.Search(
		filterdir.MustParseQuery("ou=locations,o=xyz", filterdir.ScopeSubtree, "(objectclass=location)"),
		filterdir.NewSortControl(filterdir.SortKey{Attr: "location", Reverse: true}))
	if err != nil {
		return err
	}
	fmt.Printf("sorted search: first=%s last=%s (descending)\n",
		sorted.Entries[0].First("location"), sorted.Entries[len(sorted.Entries)-1].First("location"))
	return nil
}
