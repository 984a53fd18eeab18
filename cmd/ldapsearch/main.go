// Command ldapsearch queries an LDAP server (master or replica) and prints
// the results as LDIF, in the spirit of the classic tool. Referrals are
// either printed or chased.
//
// Usage:
//
//	ldapsearch -h 127.0.0.1:3890 -b o=xyz -s sub '(serialnumber=1004*)' cn mail
//	ldapsearch -h 127.0.0.1:3891 -chase -b '' '(location=site001)'
//	ldapsearch -h 127.0.0.1:3890 -b o=xyz -sort sn -page 50 '(objectclass=person)'
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"filterdir"
	"filterdir/internal/ldapnet"
	"filterdir/internal/ldif"
	"filterdir/internal/proto"
	"filterdir/internal/query"
)

func main() {
	host := flag.String("h", "127.0.0.1:3890", "server address")
	base := flag.String("b", "", "search base DN")
	scopeStr := flag.String("s", "sub", "scope: base, one, sub")
	sortAttr := flag.String("sort", "", "server-side sort attribute (prefix '-' for descending)")
	chase := flag.Bool("chase", false, "chase referrals (a referral URL's host is dialed as an address)")
	maxChase := flag.Int("max-chase", 0, "referrals followed at most when chasing (0 = default)")
	page := flag.Int("page", 0, "RFC 2696 paged results with this page size (0 = off)")
	limit := flag.Int("z", 0, "size limit (0 = unlimited)")
	flag.Parse()

	filterStr := "(objectclass=*)"
	var attrs []string
	if flag.NArg() > 0 {
		filterStr = flag.Arg(0)
		attrs = flag.Args()[1:]
	}
	if err := run(*host, *base, *scopeStr, filterStr, *sortAttr, *chase, *maxChase, *page, *limit, attrs); err != nil {
		fmt.Fprintln(os.Stderr, "ldapsearch:", err)
		os.Exit(1)
	}
}

func run(host, base, scopeStr, filterStr, sortAttr string, chase bool, maxChase, page, limit int, attrs []string) error {
	if chase && (sortAttr != "" || page > 0) {
		return errors.New("-chase cannot be combined with -sort or -page: a chased result spans servers, and neither a sort order nor a paging cookie is defined across them")
	}
	scope, err := query.ParseScope(scopeStr)
	if err != nil {
		return err
	}
	q, err := query.New(base, scope, filterStr, attrs...)
	if err != nil {
		return err
	}

	var res *ldapnet.SearchResult
	if chase {
		r := ldapnet.NewResolver()
		r.MaxDepth = maxChase
		defer r.Close()
		res, err = r.SearchChasing(host, q)
		if errors.Is(err, ldapnet.ErrReferralLoop) {
			return fmt.Errorf("%w (the contacted servers refer this query to each other; it cannot complete anywhere — check the topology or query a server that holds the content)", err)
		}
	} else {
		c, cerr := filterdir.DialDirectory(host)
		if cerr != nil {
			return cerr
		}
		defer c.Close()
		var controls []proto.Control
		if sortAttr != "" {
			key := proto.SortKey{Attr: strings.TrimPrefix(sortAttr, "-"), Reverse: strings.HasPrefix(sortAttr, "-")}
			controls = append(controls, proto.NewSortControl(key))
		}
		if page > 0 {
			res, err = c.SearchPaged(q, page, controls...)
		} else {
			res, err = c.Search(q, controls...)
		}
	}
	if err != nil {
		var re *ldapnet.ResultError
		if errors.As(err, &re) && re.Code == proto.ResultReferral {
			fmt.Fprintf(os.Stderr, "# referral: %s\n", strings.Join(re.Referrals, " "))
		} else {
			return err
		}
	}

	entries := res.Entries
	if limit > 0 && len(entries) > limit {
		entries = entries[:limit]
	}
	if err := ldif.Write(os.Stdout, entries...); err != nil {
		return err
	}
	for _, ref := range res.Referrals {
		fmt.Printf("\n# search reference: %s\n", ref)
	}
	fmt.Fprintf(os.Stderr, "# %d entries, %d references\n", len(entries), len(res.Referrals))
	return nil
}
