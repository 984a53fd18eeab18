package resync

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
	"filterdir/internal/resync/resynctest"
)

// moveMaster holds o=xyz with two containers, ou=in (the content of inSpec)
// and ou=out beside it, persons a, b and c under ou=in and d under ou=out,
// and under ou=in a container ou=sub with one person, k.
func moveMaster(t *testing.T) *dit.Store {
	t.Helper()
	st, err := dit.NewStore([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	add := func(d string, attrs ...string) {
		t.Helper()
		e := entry.New(dn.MustParse(d))
		for i := 0; i+1 < len(attrs); i += 2 {
			e.Add(attrs[i], attrs[i+1])
		}
		if err := st.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	add("o=xyz", "objectclass", "organization", "o", "xyz")
	for _, ou := range []string{"in", "out", "sub,ou=in"} {
		add("ou="+ou+",o=xyz", "objectclass", "organizationalUnit", "ou", strings.SplitN(ou, ",", 2)[0])
	}
	for _, p := range []string{"a,ou=in", "b,ou=in", "c,ou=in", "d,ou=out", "k,ou=sub,ou=in"} {
		cn := strings.SplitN(p, ",", 2)[0]
		add("cn="+p+",o=xyz", "objectclass", "person", "cn", cn, "sn", "s", "tel", "t-"+cn, "mail", "m1")
	}
	return st
}

var inSpec = query.MustNew("ou=in,o=xyz", query.ScopeSubtree, "(objectclass=person)")

// describe renders an update set, sorted: "move <new> <- <old> [patched
// attributes]", "patch <dn> [...]", "image <dn>", "add <dn>", "delete <dn>",
// with ",o=xyz" left off every DN.
func describe(updates []Update) []string {
	short := func(d dn.DN) string { return strings.TrimSuffix(d.Norm(), ",o=xyz") }
	var out []string
	for _, u := range updates {
		var s string
		switch {
		case u.IsMove():
			s = fmt.Sprintf("move %s <- %s %v", short(u.DN), short(u.OldDN), u.Entry.AttributeNames())
		case u.Patch:
			s = fmt.Sprintf("patch %s %v", short(u.DN), u.Entry.AttributeNames())
		case u.Action == ActionModify:
			s = "image " + short(u.DN)
		default:
			s = fmt.Sprintf("%s %s", u.Action, short(u.DN))
		}
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// TestMoveClassification is computeInterval's table for renames: one move
// exactly when an entry stood in the content at the start of the interval
// and stands in it at the end under a DN that was not in it at the start,
// and nothing but renames and in-place modifies touched the DNs it passed
// through; everything else keeps the paper's delete + add (or image). Every
// case is also applied to a replica, which must end equal to the master's
// selection.
func TestMoveClassification(t *testing.T) {
	rename := func(from, rdn, parent string) func(*testing.T, *dit.Store) {
		return func(t *testing.T, st *dit.Store) {
			t.Helper()
			r := strings.SplitN(rdn, "=", 2)
			if err := st.ModifyDN(dn.MustParse(from+",o=xyz"), dn.RDN{Attr: r[0], Value: r[1]}, dn.MustParse(parent+",o=xyz")); err != nil {
				t.Fatal(err)
			}
		}
	}
	modify := func(d, attr, val string) func(*testing.T, *dit.Store) {
		return func(t *testing.T, st *dit.Store) {
			t.Helper()
			if err := st.Modify(dn.MustParse(d+",o=xyz"), []dit.Mod{{Op: dit.ModReplace, Attr: attr, Values: []string{val}}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	del := func(d string) func(*testing.T, *dit.Store) {
		return func(t *testing.T, st *dit.Store) {
			t.Helper()
			if err := st.Delete(dn.MustParse(d + ",o=xyz")); err != nil {
				t.Fatal(err)
			}
		}
	}
	add := func(d string) func(*testing.T, *dit.Store) {
		return func(t *testing.T, st *dit.Store) {
			t.Helper()
			e := entry.New(dn.MustParse(d+",o=xyz")).Put("objectclass", "person").Put("cn", "fresh").Put("sn", "s")
			if err := st.Add(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	everything := query.MustNew("ou=in,o=xyz", query.ScopeSubtree, "(objectclass=*)")
	for _, tc := range []struct {
		name  string
		spec  query.Query
		steps []func(*testing.T, *dit.Store)
		want  []string
	}{
		{"rename within", inSpec,
			[]func(*testing.T, *dit.Store){rename("cn=a,ou=in", "cn=x", "ou=in")},
			[]string{"move cn=x,ou=in <- cn=a,ou=in [cn]"}},
		{"to another parent inside", inSpec,
			[]func(*testing.T, *dit.Store){rename("cn=a,ou=in", "cn=a", "ou=sub,ou=in")},
			[]string{"move cn=a,ou=sub,ou=in <- cn=a,ou=in [cn]"}},
		{"chain with modifies before, between and after", inSpec,
			[]func(*testing.T, *dit.Store){modify("cn=a,ou=in", "tel", "2"), rename("cn=a,ou=in", "cn=x", "ou=in"),
				modify("cn=x,ou=in", "mail", "m2"), rename("cn=x,ou=in", "cn=y", "ou=in"), modify("cn=y,ou=in", "tel", "3")},
			[]string{"move cn=y,ou=in <- cn=a,ou=in [tel cn mail]"}},
		{"renamed through a DN out of the content", inSpec,
			[]func(*testing.T, *dit.Store){rename("cn=a,ou=in", "cn=a", "ou=out"), rename("cn=a,ou=out", "cn=x", "ou=in")},
			[]string{"move cn=x,ou=in <- cn=a,ou=in [cn]"}},
		{"a view that selects none of the touched", query.MustNew("ou=in,o=xyz", query.ScopeSubtree, "(sn=s)", "sn"),
			[]func(*testing.T, *dit.Store){rename("cn=a,ou=in", "cn=x", "ou=in")},
			[]string{"move cn=x,ou=in <- cn=a,ou=in []"}},
		{"subtree: each entry its own move", everything,
			[]func(*testing.T, *dit.Store){rename("ou=sub,ou=in", "ou=sub2", "ou=in")},
			[]string{"move cn=k,ou=sub2,ou=in <- cn=k,ou=sub,ou=in [cn]", "move ou=sub2,ou=in <- ou=sub,ou=in [ou]"}},
		{"into the content", inSpec,
			[]func(*testing.T, *dit.Store){rename("cn=d,ou=out", "cn=d", "ou=in")},
			[]string{"add cn=d,ou=in"}},
		{"out of the content", inSpec,
			[]func(*testing.T, *dit.Store){rename("cn=a,ou=in", "cn=a", "ou=out")},
			[]string{"delete cn=a,ou=in"}},
		{"onto a deleted DN", inSpec,
			[]func(*testing.T, *dit.Store){del("cn=b,ou=in"), rename("cn=a,ou=in", "cn=b", "ou=in")},
			[]string{"delete cn=a,ou=in", "image cn=b,ou=in"}},
		{"there and back", inSpec,
			[]func(*testing.T, *dit.Store){rename("cn=a,ou=in", "cn=x", "ou=in"), modify("cn=x,ou=in", "tel", "2"),
				rename("cn=x,ou=in", "cn=a", "ou=in")},
			[]string{"image cn=a,ou=in"}},
		{"a fresh entry at the old DN", inSpec,
			[]func(*testing.T, *dit.Store){rename("cn=a,ou=in", "cn=x", "ou=in"), add("cn=a,ou=in")},
			[]string{"add cn=x,ou=in", "image cn=a,ou=in"}},
		{"renamed, then deleted", inSpec,
			[]func(*testing.T, *dit.Store){rename("cn=a,ou=in", "cn=x", "ou=in"), del("cn=x,ou=in")},
			[]string{"delete cn=a,ou=in"}},
		{"a swap through a third name", inSpec,
			[]func(*testing.T, *dit.Store){rename("cn=a,ou=in", "cn=t", "ou=in"), rename("cn=b,ou=in", "cn=a", "ou=in"),
				rename("cn=t,ou=in", "cn=b", "ou=in")},
			[]string{"image cn=a,ou=in", "image cn=b,ou=in"}},
		{"a rename beside an in-place modify", inSpec,
			[]func(*testing.T, *dit.Store){rename("cn=a,ou=in", "cn=x", "ou=in"), modify("cn=b,ou=in", "tel", "2")},
			[]string{"move cn=x,ou=in <- cn=a,ou=in [cn]", "patch cn=b,ou=in [tel]"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The same interval through two members of one content group (the
			// second replays the first's classification) and a session alone
			// on its own engine.
			master := moveMaster(t)
			type consumer struct {
				eng     *Engine
				ap      *Applier
				cookie  string
				summary string
			}
			var cs []*consumer
			shared := NewEngine(master)
			for i, eng := range []*Engine{shared, shared, NewEngine(master)} {
				c := &consumer{eng: eng, ap: NewApplier(newReplicaStore(t)), summary: []string{"group member 1", "group member 2", "session alone"}[i]}
				res, err := c.eng.Begin(tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.ap.Apply(tc.spec, res); err != nil {
					t.Fatal(err)
				}
				c.cookie = res.Cookie
				cs = append(cs, c)
			}
			for _, step := range tc.steps {
				step(t, master)
			}
			for _, c := range cs {
				res, err := c.eng.Poll(c.cookie)
				if err != nil {
					t.Fatal(err)
				}
				if got := describe(res.Updates); !slices.Equal(got, tc.want) {
					t.Errorf("%s: updates\n  %q\nwant\n  %q", c.summary, got, tc.want)
				}
				if err := c.ap.Apply(tc.spec, res); err != nil {
					t.Fatal(err)
				}
				if ok, why := resynctest.Converged(master, c.ap.Store, tc.spec); !ok {
					t.Errorf("%s: replica after the poll: %s", c.summary, why)
				}
			}
		})
	}
}

// TestRetainSendsNoMoves: retain mode answers a rename as it always did —
// the entry under its new DN as an image and nothing for the old DN, which
// the consumer drops as unmentioned.
func TestRetainSendsNoMoves(t *testing.T) {
	master := moveMaster(t)
	eng := NewEngine(master)
	res, err := eng.Begin(inSpec)
	if err != nil {
		t.Fatal(err)
	}
	replica := newReplicaStore(t)
	ap := NewApplier(replica)
	if err := ap.Apply(inSpec, res); err != nil {
		t.Fatal(err)
	}
	if err := master.ModifyDN(dn.MustParse("cn=a,ou=in,o=xyz"), dn.RDN{Attr: "cn", Value: "x"}, dn.MustParse("ou=in,o=xyz")); err != nil {
		t.Fatal(err)
	}
	if res, err = eng.PollRetain(res.Cookie); err != nil {
		t.Fatal(err)
	}
	if got, want := describe(res.Updates), []string{"add cn=x,ou=in", "retain cn=b,ou=in", "retain cn=c,ou=in", "retain cn=k,ou=sub,ou=in"}; !slices.Equal(got, want) {
		t.Errorf("retain poll = %q, want %q", got, want)
	}
	if err := ap.ApplyRetain(inSpec, res); err != nil {
		t.Fatal(err)
	}
	if ok, why := resynctest.Converged(master, replica, inSpec); !ok {
		t.Errorf("replica after the retain poll: %s", why)
	}
}
