// Command ldapmodify applies update operations to an LDAP server.
//
// Writes may land on a replica running with -edge-writes: the replica
// journals and forwards the op, and a target outside its filters comes back
// as a referral to the master. ldapmodify chases such referrals through
// ldapnet.Resolver (at most -max-chase referrals followed, with loop
// detection), retries transient transport failures (-retry) at each server,
// and bounds each attempt with -timeout. A busy result means the replica
// accepted and journaled the write but the upstream commit is still
// pending — the replica's replay loop finishes it.
//
// Usage:
//
//	ldapmodify -h 127.0.0.1:3890 -dn 'cn=x,o=xyz' -replace 'mail=new@x' -add 'phone=123'
//	ldapmodify -h 127.0.0.1:3890 -dn 'cn=x,o=xyz' -deleteattr phone
//	ldapmodify -h 127.0.0.1:3890 -dn 'cn=x,o=xyz' -delete            # delete the entry
//	ldapmodify -h 127.0.0.1:3890 -addentry -dn 'cn=y,o=xyz' -replace 'objectclass=person' -replace 'cn=y' -replace 'sn=y'
//	ldapmodify -h 127.0.0.1:3890 -dn 'cn=x,o=xyz' -rename 'cn=z' -newsuperior 'ou=a,o=xyz'
//	ldapmodify -h 127.0.0.1:3893 -retry 3 -timeout 2s -dn 'cn=x,o=xyz' -replace 'mail=new@x'
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"filterdir"
	"filterdir/internal/ldapnet"
	"filterdir/internal/proto"
)

type kvList []string

func (l *kvList) String() string { return strings.Join(*l, ",") }

func (l *kvList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// netOptions bounds one write's networking: per-attempt dial/operation
// timeout, transient-failure retries per server, and the number of
// referrals followed.
type netOptions struct {
	timeout  time.Duration
	retry    int
	maxChase int
}

func main() {
	host := flag.String("h", "127.0.0.1:3890", "server address")
	dnStr := flag.String("dn", "", "target entry DN")
	del := flag.Bool("delete", false, "delete the entry")
	addEntry := flag.Bool("addentry", false, "add a new entry from -replace pairs")
	rename := flag.String("rename", "", "new RDN (modifyDN)")
	newSuperior := flag.String("newsuperior", "", "new parent DN for -rename")
	var n netOptions
	flag.DurationVar(&n.timeout, "timeout", 5*time.Second, "dial and per-operation timeout (0 = none)")
	flag.IntVar(&n.retry, "retry", 2, "transient-failure retries per server")
	flag.IntVar(&n.maxChase, "max-chase", ldapnet.DefaultMaxChase, "referrals followed at most (0 = default)")
	var replaces, adds, deletes kvList
	flag.Var(&replaces, "replace", "attr=value to replace (repeatable)")
	flag.Var(&adds, "add", "attr=value to add (repeatable)")
	flag.Var(&deletes, "deleteattr", "attr (or attr=value) to delete (repeatable)")
	flag.Parse()

	if err := run(*host, *dnStr, *del, *addEntry, *rename, *newSuperior, replaces, adds, deletes, n); err != nil {
		fmt.Fprintln(os.Stderr, "ldapmodify:", err)
		os.Exit(1)
	}
}

func split(kv string) (string, string) {
	attr, val, _ := strings.Cut(kv, "=")
	return attr, val
}

// buildOp translates the flags into a single write closure plus its success
// message, so the retry loop can re-run it verbatim on every server in a
// referral chain.
func buildOp(dnStr string, del, addEntry bool, rename, newSuperior string,
	replaces, adds, deletes kvList) (func(c *filterdir.Client) error, string, error) {
	if dnStr == "" {
		return nil, "", fmt.Errorf("-dn is required")
	}
	d, err := filterdir.ParseDN(dnStr)
	if err != nil {
		return nil, "", err
	}

	switch {
	case del:
		return func(c *filterdir.Client) error { return c.Delete(d) },
			fmt.Sprintf("deleted %s", d), nil

	case addEntry:
		e := filterdir.NewEntry(d)
		for _, kv := range replaces {
			attr, val := split(kv)
			e.Add(attr, val)
		}
		return func(c *filterdir.Client) error { return c.Add(e) },
			fmt.Sprintf("added %s", d), nil

	case rename != "":
		rdnDN, err := filterdir.ParseDN(rename)
		if err != nil {
			return nil, "", fmt.Errorf("new RDN: %w", err)
		}
		leaf, ok := rdnDN.Leaf()
		if !ok {
			return nil, "", fmt.Errorf("empty new RDN")
		}
		superior, _ := d.Parent()
		if newSuperior != "" {
			superior, err = filterdir.ParseDN(newSuperior)
			if err != nil {
				return nil, "", fmt.Errorf("new superior: %w", err)
			}
		}
		return func(c *filterdir.Client) error { return c.ModifyDN(d, leaf, superior) },
			fmt.Sprintf("renamed %s -> %s", d, superior.Child(leaf)), nil

	default:
		var changes []filterdir.ModifyChange
		for _, kv := range replaces {
			attr, val := split(kv)
			changes = append(changes, filterdir.ModifyChange{
				Op: filterdir.ModifyOpReplace, Attr: filterdir.WireAttribute{Type: attr, Values: []string{val}}})
		}
		for _, kv := range adds {
			attr, val := split(kv)
			changes = append(changes, filterdir.ModifyChange{
				Op: filterdir.ModifyOpAdd, Attr: filterdir.WireAttribute{Type: attr, Values: []string{val}}})
		}
		for _, kv := range deletes {
			attr, val := split(kv)
			ch := filterdir.ModifyChange{Op: filterdir.ModifyOpDelete, Attr: filterdir.WireAttribute{Type: attr}}
			if val != "" {
				ch.Attr.Values = []string{val}
			}
			changes = append(changes, ch)
		}
		if len(changes) == 0 {
			return nil, "", fmt.Errorf("nothing to do: give -replace/-add/-deleteattr, -delete, -addentry or -rename")
		}
		return func(c *filterdir.Client) error { return c.Modify(d, changes) },
			fmt.Sprintf("modified %s (%d changes)", d, len(changes)), nil
	}
}

func run(host, dnStr string, del, addEntry bool, rename, newSuperior string,
	replaces, adds, deletes kvList, n netOptions) error {
	apply, okMsg, err := buildOp(dnStr, del, addEntry, rename, newSuperior, replaces, adds, deletes)
	if err != nil {
		return err
	}
	r := ldapnet.NewResolver()
	r.MaxDepth = n.maxChase
	var chain []string
	err = r.Chase(host, func(addr string) error {
		chain = append(chain, addr)
		err := attempt(addr, apply, n)
		var re *ldapnet.ResultError
		if errors.As(err, &re) && re.Code == proto.ResultBusy {
			// The replica journaled the op durably; its replay loop will
			// finish the upstream commit. Not a failure.
			fmt.Printf("accepted at %s; upstream commit pending (journaled, will replay)\n", addr)
			return nil
		}
		if err != nil && len(chain) > 1 {
			return fmt.Errorf("%w (chain %s)", err, strings.Join(chain, " -> "))
		}
		return err
	})
	if err != nil {
		return err
	}
	fmt.Println(okMsg)
	if len(chain) > 1 {
		fmt.Printf("via %s\n", strings.Join(chain, " -> "))
	}
	return nil
}

// attempt runs the write once against addr, redialing and retrying up to
// n.retry extra times on transient transport failures. Server verdicts
// (result errors, including referrals) return immediately — retrying
// cannot change them.
func attempt(addr string, apply func(c *filterdir.Client) error, n netOptions) error {
	var err error
	for try := 0; try <= n.retry; try++ {
		if try > 0 {
			time.Sleep(time.Duration(try) * 50 * time.Millisecond)
		}
		var c *filterdir.Client
		c, err = ldapnet.DialTimeout(addr, n.timeout)
		if err != nil {
			continue
		}
		err = apply(c)
		c.Close()
		if err == nil || !ldapnet.IsTransient(err) {
			return err
		}
	}
	return err
}
