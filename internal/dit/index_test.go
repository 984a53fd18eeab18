package dit

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
)

func newAttrIndex() *attrIndex {
	return &attrIndex{byValue: make(map[string][]string)}
}

// assertIndexesRebuilt holds every index and the referral registry of a
// shard state to ones rebuilt from the state's entries: the same values, for
// each value the same sorted posting, and value lists that reach every
// posting through a prefix scan.
func assertIndexesRebuilt(t *testing.T, indexAttrs []string, state *shardState, when string) {
	t.Helper()
	if len(state.indexes) != len(indexAttrs) {
		t.Fatalf("%s: %d of the %d declared indexes built", when, len(state.indexes), len(indexAttrs))
	}
	fresh := newShardState()
	fresh.indexes = make(map[string]*attrIndex)
	for _, a := range indexAttrs {
		fresh.indexes[a] = newAttrIndex()
	}
	for norm, e := range state.entries {
		fresh.indexEntry(e, norm)
	}
	if !maps.Equal(fresh.referrals, state.referrals) {
		t.Fatalf("%s: referral registry %v, rebuilt %v", when, state.referrals, fresh.referrals)
	}
	for attr, ix := range state.indexes {
		want := fresh.indexes[attr].byValue
		if len(ix.byValue) != len(want) {
			t.Fatalf("%s: index %s holds %d values, rebuilt %d: %v vs %v", when, attr, len(ix.byValue), len(want), ix.byValue, want)
		}
		var all []string
		for v, p := range want {
			if !slices.Equal(ix.byValue[v], p) {
				t.Fatalf("%s: index %s value %q: posting %v, rebuilt %v", when, attr, v, ix.byValue[v], p)
			}
			if !slices.Equal(ix.lookupEQ(v), p) {
				t.Fatalf("%s: index %s lookupEQ(%q) = %v, rebuilt %v", when, attr, v, ix.lookupEQ(v), p)
			}
			all = append(all, p...)
		}
		got := ix.lookupPrefix("")
		slices.Sort(got)
		slices.Sort(all)
		if !slices.Equal(got, all) {
			t.Fatalf("%s: index %s prefix scan of everything = %v, rebuilt %v", when, attr, got, all)
		}
	}
}

// lookupsOf records what a view's indexes answer: per attribute, the posting
// of every value and a prefix scan per leading character.
func lookupsOf(v *view) map[string][]string {
	out := map[string][]string{}
	for i, st := range v.states {
		for attr, ix := range st.indexes {
			for val := range ix.byValue {
				out[fmt.Sprintf("%d/%s=%s", i, attr, val)] = slices.Clone(ix.lookupEQ(val))
			}
			for _, p := range []string{"", "v", "v1", "w", "d"} {
				got := ix.lookupPrefix(p)
				slices.Sort(got)
				out[fmt.Sprintf("%d/%s=%s*", i, attr, p)] = got
			}
		}
	}
	return out
}

// TestIndexMatchesEntriesAcrossFreezes drives a random history of adds,
// replaces, patches, removals and renames over a store with indexed
// multi-valued attributes, freezing a view every few steps so that writes keep
// crossing the copy-on-write boundary. After every step each posting equals
// the one rebuilt from the entries; and what a frozen view's indexes answered
// when it was taken they still answer after all later writes.
func TestIndexMatchesEntriesAcrossFreezes(t *testing.T) {
	st, err := NewStore([]string{""}, WithIndexes("tel", "dept"), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(17))
	name := func(i int) dn.DN { return dn.MustParse(fmt.Sprintf("cn=p%d,o=xyz", i)) }
	if err := st.Upsert(entry.New(dn.MustParse("o=xyz")).Put("objectclass", "organization").Put("o", "xyz")); err != nil {
		t.Fatal(err)
	}
	// One indexed read builds both indexes; every write after it maintains them.
	st.MatchAll(query.MustNew("", query.ScopeSubtree, "(|(tel=v1)(dept=d0))"))
	values := func() []string {
		// Few distinct values: postings of several DNs, shared across entries.
		return [][]string{nil, {fmt.Sprint("v", r.Intn(4))}, {fmt.Sprint("v", r.Intn(4)), "w"}, {"V1", "v1"}}[r.Intn(4)]
	}
	type frozen struct {
		v    *view
		want map[string][]string
		step int
	}
	var views []frozen
	const names = 12
	for step := 0; step < 600; step++ {
		d := name(r.Intn(names))
		held, ok := st.Get(d)
		switch op := r.Intn(6); {
		case !ok || op == 0:
			e := entry.New(d).Put("objectclass", "person").Put("cn", d.String()).Put("dept", "d0")
			if v := values(); v != nil {
				e.Put("tel", v...)
			}
			err = st.Upsert(e)
		case op == 1:
			err = st.Modify(d, []Mod{{Op: ModReplace, Attr: []string{"tel", "Dept"}[r.Intn(2)], Values: values()}})
		case op == 2:
			err = st.ApplyOwned([]SyncOp{{Patch: entry.New(d).Put("tel", values()...).Put("note", fmt.Sprint(step))}})
		case op == 3:
			err = st.ApplyOwned([]SyncOp{{Remove: d}})
		case op == 4:
			to := name(names + r.Intn(names))
			if _, taken := st.Get(to); taken {
				continue
			}
			leaf, _ := to.Leaf()
			err = st.ModifyDN(d, leaf, dn.MustParse("o=xyz"))
			if err == nil {
				// Back under a name the history draws from.
				if back := name(r.Intn(names)); !heldAt(st, back) {
					leaf, _ := back.Leaf()
					err = st.ModifyDN(to, leaf, dn.MustParse("o=xyz"))
				}
			}
		default:
			held.Put("dept", fmt.Sprint("d", r.Intn(3)))
			err = st.Upsert(held)
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		// Reading the states for the check must not itself freeze them.
		for _, sh := range st.shards {
			assertIndexesRebuilt(t, st.indexAttrs, sh.load(), fmt.Sprintf("step %d", step))
		}
		if step%7 == 0 {
			v := st.freeze()
			views = append(views, frozen{v: v, want: lookupsOf(v), step: step})
		}
	}
	for _, f := range views {
		got := lookupsOf(f.v)
		if len(got) != len(f.want) {
			t.Fatalf("view frozen at step %d answers %d lookups now, %d then", f.step, len(got), len(f.want))
		}
		for k, want := range f.want {
			if !slices.Equal(got[k], want) {
				t.Fatalf("view frozen at step %d: lookup %s = %v now, %v when frozen", f.step, k, got[k], want)
			}
		}
	}
}

func heldAt(st *Store, d dn.DN) bool {
	_, ok := st.Held(d.Norm())
	return ok
}

// TestIndexDropsDeadValues: a value no entry carries any more leaves the
// sorted value list at the next merge. Under add/delete churn of unique
// values (a serial number, a mail address) the list used to keep every value
// ever indexed — the merge compacted only adjacent duplicates — and every
// prefix lookup walked the corpses.
func TestIndexDropsDeadValues(t *testing.T) {
	st, err := NewStore([]string{"o=xyz"}, WithIndexes("uid"), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	person := func(i int) *entry.Entry {
		e := entry.New(dn.MustParse(fmt.Sprintf("cn=p%d,o=xyz", i)))
		return e.Put("objectclass", "person").Put("cn", fmt.Sprint("p", i)).Put("uid", fmt.Sprintf("u%06d", i))
	}
	base := []*entry.Entry{entry.New(dn.MustParse("o=xyz")).Put("objectclass", "organization").Put("o", "xyz")}
	for i := 0; i < 100; i++ {
		base = append(base, person(i))
	}
	if err := st.Load(base); err != nil {
		t.Fatal(err)
	}
	// One indexed read builds the index; the churn below maintains it.
	st.MatchAll(query.MustNew("o=xyz", query.ScopeSubtree, "(uid=u000000)"))
	for i := 100; i < 20100; i++ {
		e := person(i)
		if err := st.Add(e); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			// Some of the churn dies and comes back before a merge.
			if err := st.Delete(e.DN()); err != nil {
				t.Fatal(err)
			}
			if err := st.Add(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Delete(e.DN()); err != nil {
			t.Fatal(err)
		}
	}
	ix := st.shards[0].load().indexes["uid"]
	if live := len(ix.byValue); live != 100 {
		t.Fatalf("index holds %d live values, want 100", live)
	}
	if n, max := len(ix.sorted), 100+pendingMergeThreshold; n > max {
		t.Errorf("sorted value list holds %d values for 100 live ones (bound %d): dead values are never dropped", n, max)
	}
	if n := len(ix.pending) + len(ix.dead); n >= pendingMergeThreshold {
		t.Errorf("pending + dead = %d at a batch boundary, threshold %d", n, pendingMergeThreshold)
	}
	q := query.MustNew("o=xyz", query.ScopeSubtree, "(uid=u0000*)")
	if got := len(st.MatchAll(q)); got != 100 {
		t.Errorf("prefix search after churn finds %d entries, want 100", got)
	}
	if got := len(st.MatchAll(query.MustNew("o=xyz", query.ScopeSubtree, "(uid=u01*)"))); got != 0 {
		t.Errorf("prefix search finds %d deleted entries", got)
	}
}

// TestShardIndexIsFNV1a pins the shard routing to the hash it has always
// been, now computed without a hash.Hash64.
func TestShardIndexIsFNV1a(t *testing.T) {
	for _, norm := range []string{"", "o=xyz", "cn=emp us 17,c=us,o=xyz", "cn=müller,o=xyz"} {
		for _, n := range []int{1, 2, 3, 8, 13} {
			h := fnv.New64a()
			_, _ = h.Write([]byte(norm))
			if got, want := shardIndex(norm, n), int(h.Sum64()%uint64(n)); got != want {
				t.Errorf("shardIndex(%q, %d) = %d, FNV-1a gives %d", norm, n, got, want)
			}
		}
	}
}

// BenchmarkPostingChurn times what the master's commit path pays when an
// entry leaves and rejoins a posting of several hundred DNs (employees by
// department, by location): one bisection and one shift each, on an index
// that owns its postings and on one that shares them with a frozen view.
func BenchmarkPostingChurn(b *testing.B) {
	for _, size := range []int{1, 300, 10000} {
		norms := make([]string, size)
		for i := range norms {
			norms[i] = fmt.Sprintf("cn=emp us %d,c=us,o=xyz", i)
		}
		build := func() *attrIndex {
			ix := newAttrIndex()
			for _, n := range norms {
				ix.add("d17", n)
			}
			return ix
		}
		b.Run(fmt.Sprintf("owned/%d", size), func(b *testing.B) {
			ix := build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := norms[i%size]
				ix.remove("d17", n)
				ix.add("d17", n)
			}
		})
		b.Run(fmt.Sprintf("shared/%d", size), func(b *testing.B) {
			frozen := build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix := frozen.clone() // what the first write after a freeze does
				n := norms[i%size]
				ix.remove("d17", n)
				ix.add("d17", n)
			}
		})
	}
}

// BenchmarkPostingBulkLoad times building one posting of n DNs in arrival
// order (numeric, not sorted): the cost of keeping a posting sorted by
// insertion when an attribute is not selective at all.
func BenchmarkPostingBulkLoad(b *testing.B) {
	for _, size := range []int{300, 10000} {
		norms := make([]string, size)
		for i := range norms {
			norms[i] = fmt.Sprintf("cn=emp us %d,c=us,o=xyz", i)
		}
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix := newAttrIndex()
				for _, n := range norms {
					ix.add("person", n)
				}
			}
		})
	}
}
