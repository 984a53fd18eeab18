package dit

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
)

// employee is a Table-1 employee at d: nine attributes, twelve values.
func employee(d dn.DN, i int) *entry.Entry {
	return entry.New(d).Put("objectclass", "top", "person", "organizationalPerson", "inetOrgPerson").
		Put("cn", fmt.Sprint("emp us ", i)).Put("sn", fmt.Sprint("sn", i)).Put("serialNumber", fmt.Sprint(100000+i)).
		Put("uid", fmt.Sprint("u", 100000+i)).Put("mail", "qzkxv@us.xyz.com").Put("departmentNumber", "231").
		Put("telephoneNumber", "555-0117").Put("description", strings.Repeat("x", 512))
}

// flatStore loads o=xyz, c=us,o=xyz and n people directly under the
// country, the paper's flat namespace: cn=emp us <i> with serial number
// 100000+i.
func flatStore(tb testing.TB, n int, opts ...Option) *Store {
	tb.Helper()
	st, err := NewStore([]string{"o=xyz"}, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	load := []*entry.Entry{
		entry.New(dn.MustParse("o=xyz")).Put("objectclass", "organization"),
		entry.New(dn.MustParse("c=us,o=xyz")).Put("objectclass", "country"),
	}
	for i := 0; i < n; i++ {
		load = append(load, entry.New(dn.MustParse(fmt.Sprintf("cn=emp us %d,c=us,o=xyz", i))).Put("objectclass", "person").
			Put("serialNumber", fmt.Sprint(100000+i)).Put("telephoneNumber", "555-0117"))
	}
	if err := st.Load(load); err != nil {
		tb.Fatal(err)
	}
	return st
}

// childOnOtherShard returns the first DN name(0), name(1), … whose shard of
// n is not its parent's.
func childOnOtherShard(n int, name func(i int) string) dn.DN {
	for i := 0; ; i++ {
		d := dn.MustParse(name(i))
		parent, _ := d.Parent()
		if shardIndex(d.Norm(), n) != shardIndex(parent.Norm(), n) {
			return d
		}
	}
}

// TestAddAfterReadAllocs: after an indexed Search has frozen every shard, an
// Add under a parent held on another shard writes its own shard alone, so it
// clones one shard state. It used to write the parent's shard too, for the
// child link, and clone it along with the parent's whole child set.
func TestAddAfterReadAllocs(t *testing.T) {
	for _, shards := range []int{2, 8} {
		t.Run(fmt.Sprint("shards=", shards), func(t *testing.T) {
			st := flatStore(t, 1000, WithShards(shards), WithIndexes("serialnumber"))
			d := childOnOtherShard(shards, func(i int) string { return fmt.Sprintf("cn=new %d,c=us,o=xyz", i) })
			if res := mustSearch(t, st, "o=xyz", query.ScopeSubtree, "(serialnumber=100017)"); len(res.Entries) != 1 {
				t.Fatalf("indexed search found %d entries", len(res.Entries))
			}
			clones := st.Counters().ShardClones.Load()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := st.Add(employee(d, 5000)); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			got := st.Counters().ShardClones.Load() - clones
			t.Logf("an Add after an indexed Search at %d shards: %d shard clones, %d B of allocations",
				shards, got, after.TotalAlloc-before.TotalAlloc)
			if got != 1 {
				t.Errorf("the Add cloned %d shard states, want 1 (its own)", got)
			}
		})
	}
}

// TestNotLeafAcrossShards: an entry whose only child is held on another
// shard is not a leaf: its Delete is refused with ErrNotLeaf until the child
// is gone, and goes through after.
func TestNotLeafAcrossShards(t *testing.T) {
	for _, shards := range []int{2, 8} {
		t.Run(fmt.Sprint("shards=", shards), func(t *testing.T) {
			st := batchTestStore(t, WithShards(shards))
			child := childOnOtherShard(shards, func(i int) string { return fmt.Sprintf("cn=kid %d,ou=p,o=xyz", i) })
			parent, _ := child.Parent()
			for _, e := range []*entry.Entry{
				entry.New(parent).Put("objectclass", "organizationalUnit"),
				entry.New(child).Put("objectclass", "person"),
			} {
				if err := st.Add(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Delete(parent); !errors.Is(err, ErrNotLeaf) {
				t.Fatalf("delete of %s with a child on another shard = %v, want ErrNotLeaf", parent, err)
			}
			for _, d := range []dn.DN{child, parent} {
				if err := st.Delete(d); err != nil {
					t.Fatalf("delete %s: %v", d, err)
				}
			}
		})
	}
}

// TestSubtreeMoveJournalAcrossShards: a subtree move journals one record per
// moved entry, parents before children and siblings in normalized-DN order,
// the same sequence at 1, 2 and 8 shards. The siblings "a b", "a" and "a0"
// sort by their whole normalized DNs — "a b,…" < "a,…" < "a0,…" — not by
// their values alone, and are added in another order.
func TestSubtreeMoveJournalAcrossShards(t *testing.T) {
	values := []string{"a0", "a", "a b"} // added in this order
	sorted := []string{"a b", "a", "a0"}
	levels := []string{"ou", "ou", "cn"}
	// grow visits the subtree below parent from the given level down,
	// parents before children and siblings in the given order.
	var grow func(parent string, level int, order []string, visit func(d string))
	grow = func(parent string, level int, order []string, visit func(d string)) {
		if level == len(levels) {
			return
		}
		for _, v := range order {
			d := levels[level] + "=" + v + "," + parent
			visit(d)
			grow(d, level+1, order, visit)
		}
	}
	want := []string{"ou=r,o=xyz -> ou=moved,c=us,o=xyz"}
	grow("ou=r,o=xyz", 0, sorted, func(d string) {
		want = append(want, d+" -> "+strings.TrimSuffix(d, "ou=r,o=xyz")+"ou=moved,c=us,o=xyz")
	})

	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprint("shards=", shards), func(t *testing.T) {
			st := batchTestStore(t, WithShards(shards))
			add := func(d string) {
				if err := st.Add(entry.New(dn.MustParse(d)).Put("objectclass", "top")); err != nil {
					t.Fatal(err)
				}
			}
			add("ou=r,o=xyz")
			grow("ou=r,o=xyz", 0, values, add)
			from := st.LastCSN()
			if err := st.ModifyDN(dn.MustParse("ou=r,o=xyz"), dn.RDN{Attr: "ou", Value: "moved"}, dn.MustParse("c=us,o=xyz")); err != nil {
				t.Fatal(err)
			}
			changes, _ := st.ChangesSince(from)
			var got []string
			for _, c := range changes {
				if c.Type != ChangeModifyDN || !c.After.DN().Equal(c.NewDN) {
					t.Fatalf("record %d: %v %s -> %s, after at %s", c.CSN, c.Type, c.DN, c.NewDN, c.After.DN())
				}
				got = append(got, c.DN.String()+" -> "+c.NewDN.String())
			}
			if !slices.Equal(got, want) {
				t.Errorf("journal:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			if root, _ := st.Get(dn.MustParse("ou=moved,c=us,o=xyz")); root.First("ou") != "moved" {
				t.Errorf("moved root = %v, want ou: moved", root)
			}
		})
	}
}

// TestMoveAllocs gates what a replica-side move with a one-attribute patch of
// a Table-1 employee costs through ApplyOwned once the journal is full: the
// renamed image shares the held entry's buffer and table, so only the patch
// copies the entry, and the move costs one allocation more than the patch
// alone (14). The rename used to copy the entry too: 19 allocations.
func TestMoveAllocs(t *testing.T) {
	st := flatStore(t, 0, WithJournalLimit(64))
	names := [2]dn.DN{dn.MustParse("cn=emp us 17,c=us,o=xyz"), dn.MustParse("cn=emp us 17 moved,c=us,o=xyz")}
	if err := st.ApplyOwned([]SyncOp{{Put: employee(names[0], 17)}}); err != nil {
		t.Fatal(err)
	}
	k := 0
	apply := func(op SyncOp) {
		if err := st.ApplyOwned([]SyncOp{op}); err != nil {
			t.Fatal(err)
		}
	}
	patch := func() {
		apply(SyncOp{Patch: entry.New(names[k%2]).Put("telephoneNumber", "555-0199")})
	}
	move := func() {
		apply(SyncOp{From: names[k%2], Patch: entry.New(names[(k+1)%2]).Put("telephoneNumber", "555-0199")})
		k++
	}
	for i := 0; i < 100; i++ { // past the bound: the journal is full
		move()
	}
	patches, moves := testing.AllocsPerRun(1000, patch), testing.AllocsPerRun(1000, move)
	t.Logf("replica-side move with a one-attribute patch of a Table-1 employee: %.0f allocations (the patch alone: %.0f)",
		moves, patches)
	if moves > 15 {
		t.Errorf("a move allocates %.0f times, gate is 15", moves)
	}
}

// TestCheckAttrAllocs: the attribute-name rule accepts RFC 4512's attribute
// descriptions and refuses what an LDIF line cannot carry back, allocating
// nothing for a name it accepts — every Add and Modify at a master checks
// every name it is given.
func TestCheckAttrAllocs(t *testing.T) {
	good := []string{"cn", "objectClass", "x-pager2", "2.5.4.3", "cn;lang-en", "cn;a;b-1"}
	for _, a := range good {
		if err := CheckAttr(a); err != nil {
			t.Errorf("CheckAttr(%q) = %v", a, err)
		}
	}
	for _, a := range []string{"", "x:y", "1cn", "cn;", ";x", "cn;;a", "2..5", ".2", "2.", "c n", "cn;a_b", "ü"} {
		if err := CheckAttr(a); !errors.Is(err, ErrBadAttr) {
			t.Errorf("CheckAttr(%q) = %v, want ErrBadAttr", a, err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, a := range good {
			_ = CheckAttr(a)
		}
	})
	t.Logf("CheckAttr of %d accepted names: %.0f allocations", len(good), allocs)
	if allocs != 0 {
		t.Errorf("CheckAttr allocates %.0f times for accepted names, gate is 0", allocs)
	}
}

// BenchmarkWriteAfterRead times a write that follows a read: one indexed
// point Search, which freezes every shard, then a Modify of an unindexed
// attribute of an employee or an Add of one under the parent every employee
// sits under. The write clones the state of the shard it writes. 10 k and
// 100 k people flat under c=us,o=xyz, at 1, 2 and 8 shards; the index is
// built before the clock starts.
func BenchmarkWriteAfterRead(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		for _, shards := range []int{1, 2, 8} {
			st := flatStore(b, n, WithShards(shards), WithIndexes("serialnumber"))
			point := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=100017)")
			read := func(b *testing.B) {
				if res, err := st.Search(point); err != nil || len(res.Entries) != 1 {
					b.Fatalf("res=%v err=%v", res, err)
				}
			}
			read(b) // builds the index
			b.Run(fmt.Sprintf("%d/shards=%d/modify", n, shards), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					read(b)
					d := dn.MustParse(fmt.Sprintf("cn=emp us %d,c=us,o=xyz", i%n))
					if err := st.Modify(d, []Mod{{Op: ModReplace, Attr: "telephoneNumber", Values: []string{fmt.Sprint(i)}}}); err != nil {
						b.Fatal(err)
					}
				}
			})
			added := 0
			b.Run(fmt.Sprintf("%d/shards=%d/add", n, shards), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					read(b)
					added++
					e := entry.New(dn.MustParse(fmt.Sprintf("cn=new %d,c=us,o=xyz", added))).Put("objectclass", "person")
					if err := st.Add(e); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
