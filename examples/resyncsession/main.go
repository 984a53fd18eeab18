// Command resyncsession replays the example ReSync session of Figure 3:
// entries E1..E5 move through their lifecycles while a replica synchronizes
// the content of a search request S with two polls and a persist-mode
// subscription, printing the protocol's message sequence.
package main

import (
	"fmt"
	"log"

	"filterdir"
	"filterdir/internal/dit"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func addEmployee(master *filterdir.Directory, cn, serial string) error {
	e := filterdir.NewEntry(filterdir.MustParseDN("cn=" + cn + ",c=us,o=xyz"))
	e.Put("objectclass", "person", "inetOrgPerson").
		Put("cn", cn).Put("sn", cn).Put("serialNumber", serial)
	return master.Add(e)
}

func printUpdates(label string, updates []filterdir.SyncUpdate) {
	fmt.Printf("%s\n", label)
	if len(updates) == 0 {
		fmt.Println("  (no updates)")
	}
	for _, u := range updates {
		if u.IsMove() {
			fmt.Printf("  %-7s %s (from %s)\n", "move", u.DN, u.OldDN)
			continue
		}
		fmt.Printf("  %-7s %s\n", u.Action, u.DN)
	}
	fmt.Println()
}

func run() error {
	master, err := filterdir.NewDirectory([]string{"o=xyz"})
	if err != nil {
		return err
	}
	for _, dnStr := range []string{"o=xyz", "c=us,o=xyz"} {
		e := filterdir.NewEntry(filterdir.MustParseDN(dnStr))
		if dnStr == "o=xyz" {
			e.Put("objectclass", "organization").Put("o", "xyz")
		} else {
			e.Put("objectclass", "country").Put("c", "us")
		}
		if err := master.Add(e); err != nil {
			return err
		}
	}

	// The replicated content: S = all inetOrgPerson entries under o=xyz.
	spec := filterdir.MustParseQuery("o=xyz", filterdir.ScopeSubtree, "(objectclass=inetorgperson)")
	engine := filterdir.NewSyncEngine(master)

	// E1, E2, E3 exist before the session starts.
	for i, cn := range []string{"E1", "E2", "E3"} {
		if err := addEmployee(master, cn, fmt.Sprintf("000%d", i+1)); err != nil {
			return err
		}
	}

	fmt.Println("client -> server: S, (poll, null)")
	res, err := engine.Begin(spec)
	if err != nil {
		return err
	}
	printUpdates("server -> client: initial content, cookie issued", res.Updates)

	// Between the polls: E4 added; E1, E2 deleted; E3 modified in place.
	if err := addEmployee(master, "E4", "0004"); err != nil {
		return err
	}
	if err := master.Delete(filterdir.MustParseDN("cn=E1,c=us,o=xyz")); err != nil {
		return err
	}
	if err := master.Delete(filterdir.MustParseDN("cn=E2,c=us,o=xyz")); err != nil {
		return err
	}
	if err := master.Modify(filterdir.MustParseDN("cn=E3,c=us,o=xyz"),
		[]dit.Mod{{Op: dit.ModReplace, Attr: "serialNumber", Values: []string{"0033"}}}); err != nil {
		return err
	}

	fmt.Println("client -> server: S, (poll, cookie)")
	res2, err := engine.Poll(res.Cookie)
	if err != nil {
		return err
	}
	printUpdates("server -> client: accumulated session history", res2.Updates)

	// Persist mode: the connection stays open; E3 is renamed to E5, which
	// within the content is a delete of the old DN plus an add of the new —
	// sent as one move, a patch under the new DN that names the old one.
	fmt.Println("client -> server: S, (persist, cookie)")
	sub, err := engine.Persist(res2.Cookie)
	if err != nil {
		return err
	}
	if err := master.ModifyDN(filterdir.MustParseDN("cn=E3,c=us,o=xyz"),
		filterdir.RDN{Attr: "cn", Value: "E5"}, filterdir.MustParseDN("c=us,o=xyz")); err != nil {
		return err
	}
	batch := <-sub.Updates
	printUpdates("server -> client: change notification (E3 renamed to E5)", batch.Updates)

	fmt.Println("client -> server: abandon")
	sub.Close()
	if err := engine.End(res2.Cookie); err != nil {
		return err
	}
	fmt.Println("session ended (mode sync_end); active sessions:", engine.Sessions())
	return nil
}
