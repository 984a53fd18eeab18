package dit

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
)

// builtIndexes lists the attributes whose index the store's shards hold.
func builtIndexes(t *testing.T, st *Store) []string {
	t.Helper()
	var attrs []string
	for i, sh := range st.shards {
		var here []string
		for a := range sh.load().indexes {
			here = append(here, a)
		}
		slices.Sort(here)
		if i > 0 && !slices.Equal(here, attrs) {
			t.Fatalf("shard %d holds indexes %v, shard 0 %v", i, here, attrs)
		}
		attrs = here
	}
	return attrs
}

// dnsOf renders a result as its DNs, in order.
func dnsOf(es []*entry.Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.DN().String()
	}
	return out
}

// scanFor is what a query must return, by a walk over every entry.
func scanFor(st *Store, q query.Query) []string {
	var out []string
	for _, e := range st.All() {
		if q.InScope(e.DN()) && q.Filter.Matches(e) {
			out = append(out, e.DN().String())
		}
	}
	return out
}

// TestIndexBuildOnlyWhenRead: writes, Load among them, build no index; a read
// builds exactly the declared indexes its filter would be answered from — an
// OR with an undeclared branch is answered by a scan and builds none, an AND
// builds those of its indexable children — and nothing else.
func TestIndexBuildOnlyWhenRead(t *testing.T) {
	st, err := NewStore([]string{"o=xyz"}, WithIndexes("tel", "dept", "mail"), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	load := []*entry.Entry{entry.New(dn.MustParse("o=xyz")).Put("objectclass", "organization").Put("o", "xyz")}
	for i := 0; i < 30; i++ {
		load = append(load, entry.New(dn.MustParse(fmt.Sprintf("cn=p%d,o=xyz", i))).Put("objectclass", "person").
			Put("cn", fmt.Sprint("p", i)).Put("tel", fmt.Sprint("v", i%4)).Put("dept", fmt.Sprint("d", i%3)).Put("mail", fmt.Sprint("m", i)))
	}
	if err := st.Load(load); err != nil {
		t.Fatal(err)
	}
	if err := st.Modify(dn.MustParse("cn=p1,o=xyz"), []Mod{{Op: ModReplace, Attr: "tel", Values: []string{"v9"}}}); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		read  func(q query.Query)
		f     string
		built []string
	}{
		{nil, "", nil},
		{func(q query.Query) { st.MatchAll(q) }, "(|(tel=v1)(cn=p2))", nil},
		{func(q query.Query) { st.MatchAll(q) }, "(!(tel=v1))", nil},
		{func(q query.Query) { st.Snapshot(q) }, "(tel>=v1)", nil},
		{func(q query.Query) { st.Search(q) }, "(&(tel=v1)(cn=p*)(|(dept=d1)(cn=p3)))", []string{"tel"}},
		{func(q query.Query) { st.Snapshot(q) }, "(|(dept=d1)(mail=m*))", []string{"dept", "mail", "tel"}},
	} {
		if step.read != nil {
			q := query.MustNew("o=xyz", query.ScopeSubtree, step.f)
			step.read(q)
		}
		if got := builtIndexes(t, st); !slices.Equal(got, step.built) {
			t.Fatalf("after %q: indexes %v built, want %v", step.f, got, step.built)
		}
	}
	for _, sh := range st.shards {
		assertIndexesRebuilt(t, st.indexAttrs, sh.load(), "after the reads")
	}
}

// TestIndexBuildMatchesEagerIndex: over seeded histories of adds, modifies
// (indexed values among them), subtree moves, deletes and replica-side
// batches (puts, patches, moves, copies, removals), every Search, MatchAll
// and Snapshot on a store whose indexes are built by whichever read first
// wants them returns what the same read returns on a store whose indexes an
// early read built at time zero, and at the end the lazily built indexes
// equal ones rebuilt from the entries.
func TestIndexBuildMatchesEagerIndex(t *testing.T) {
	filters := []string{
		"(tel=v1)", "(tel=v*)", "(dept=d2)", "(&(tel=v2)(cn=p1*))", "(|(tel=v0)(dept=d1))",
		"(|(tel=v0)(cn=p3))", "(&(|(tel=v1)(dept=d0))(objectclass=person))", "(!(tel=v1))",
		"(tel>=v2)", "(dept=d*)", "(objectclass=*)",
	}
	// Master-side operations keep to the units, replica-side batches to two
	// names no entry carries and to ou=c, where a unit moves: a subtree move
	// onto a name under which a replica-side put left an orphan is refused.
	bases := []string{"o=xyz", "ou=a,o=xyz", "ou=b,o=xyz", "ou=c,o=xyz"}
	sparse := []string{"ou=r,o=xyz", "ou=s,o=xyz", "ou=c,o=xyz"}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			var stores [2]*Store
			for i := range stores {
				st, err := NewStore([]string{"o=xyz"}, WithIndexes("tel", "dept"), WithShards(1+int(seed%3)))
				if err != nil {
					t.Fatal(err)
				}
				stores[i] = st
			}
			eager, lazy := stores[0], stores[1]
			eager.MatchAll(query.MustNew("o=xyz", query.ScopeSubtree, "(|(tel=v0)(dept=d0))"))
			if got := builtIndexes(t, eager); len(got) != 2 {
				t.Fatalf("the early read built %v", got)
			}
			r := rand.New(rand.NewSource(seed))
			person := func(name string, under string) *entry.Entry {
				e := entry.New(dn.MustParse(fmt.Sprintf("cn=%s,%s", name, under))).Put("objectclass", "person").Put("cn", name)
				switch r.Intn(3) {
				case 0:
					e.Put("tel", fmt.Sprint("v", r.Intn(4)))
				case 1:
					e.Put("tel", fmt.Sprint("v", r.Intn(4)), "V1")
				}
				return e.Put("dept", fmt.Sprint("d", r.Intn(3)))
			}
			ous := []string{"ou=a,o=xyz", "ou=b,o=xyz"}
			pick := func(under []string) dn.DN {
				return dn.MustParse(fmt.Sprintf("cn=p%d,%s", r.Intn(12), under[r.Intn(len(under))]))
			}
			// Each step draws its operation once and applies it to both stores.
			var ops []func(st *Store) error
			ops = append(ops, func(st *Store) error {
				return st.Add(entry.New(dn.MustParse("o=xyz")).Put("objectclass", "organization").Put("o", "xyz"))
			})
			for _, ou := range ous {
				ou := ou
				ops = append(ops, func(st *Store) error {
					return st.Add(entry.New(dn.MustParse(ou)).Put("objectclass", "organizationalUnit"))
				})
			}
			for step := 0; step < 300; step++ {
				d := pick(bases)
				leaf, _ := d.Leaf()
				parent, _ := d.Parent()
				switch r.Intn(9) {
				case 0, 1:
					e := person(leaf.Value, parent.String())
					ops = append(ops, func(st *Store) error { return st.Add(e.Clone()) })
				case 2:
					vals := [][]string{nil, {fmt.Sprint("v", r.Intn(4))}, {"v2", "w"}}[r.Intn(3)]
					attr := []string{"tel", "Dept", "sn"}[r.Intn(3)]
					ops = append(ops, func(st *Store) error {
						return st.Modify(d, []Mod{{Op: ModReplace, Attr: attr, Values: vals}})
					})
				case 3:
					ops = append(ops, func(st *Store) error { return st.Delete(d) })
				case 4:
					to := dn.MustParse(ous[r.Intn(len(ous))])
					rdn := dn.RDN{Attr: "cn", Value: fmt.Sprint("p", r.Intn(12))}
					ops = append(ops, func(st *Store) error { return st.ModifyDN(d, rdn, to) })
				case 5:
					// A whole unit moves, or comes back.
					from, to := "ou=a", "ou=c"
					if r.Intn(2) == 0 {
						from, to = to, from
					}
					ops = append(ops, func(st *Store) error {
						return st.ModifyDN(dn.MustParse(from+",o=xyz"), dn.RDN{Attr: "ou", Value: to[3:]}, dn.MustParse("o=xyz"))
					})
				default:
					var batch []SyncOp
					for n := 1 + r.Intn(4); n > 0; n-- {
						target := pick(sparse)
						l, _ := target.Leaf()
						p, _ := target.Parent()
						switch r.Intn(5) {
						case 0:
							batch = append(batch, SyncOp{Put: person(l.Value, p.String())})
						case 1:
							batch = append(batch, SyncOp{Patch: entry.New(target).Put("tel", fmt.Sprint("v", r.Intn(4)))})
						case 2:
							batch = append(batch, SyncOp{Patch: entry.New(target).Put("dept", "d9"), From: pick(sparse)})
						case 3:
							batch = append(batch, SyncOp{Patch: entry.New(target), From: pick(sparse), Keep: true})
						default:
							batch = append(batch, SyncOp{Remove: target})
						}
					}
					ops = append(ops, func(st *Store) error {
						own := make([]SyncOp, len(batch))
						for i, op := range batch {
							own[i] = op
							if op.Put != nil {
								own[i].Put = op.Put.Clone()
							}
							if op.Patch != nil {
								own[i].Patch = op.Patch.Clone()
							}
						}
						return st.ApplyOwned(own)
					})
				}
				if r.Intn(4) == 0 {
					under := slices.Concat(bases, sparse)
					q := query.MustNew(under[r.Intn(len(under))], query.Scope(r.Intn(3)), filters[r.Intn(len(filters))])
					kind := r.Intn(3)
					ops = append(ops, func(st *Store) error { return readAs(st, kind, q) })
				}
			}
			reads := 0
			for i, op := range ops {
				eagerOut, lazyOut := op(eager), op(lazy)
				if fmt.Sprint(eagerOut) != fmt.Sprint(lazyOut) {
					t.Fatalf("op %d differs:\neager %v\nlazy  %v", i, eagerOut, lazyOut)
				}
				if _, ok := eagerOut.(readOutcome); ok {
					reads++
				}
			}
			lazy.MatchAll(query.MustNew("o=xyz", query.ScopeSubtree, "(|(tel=v0)(dept=d0))"))
			for _, sh := range eager.shards {
				assertIndexesRebuilt(t, eager.indexAttrs, sh.load(), "eager, end of history")
			}
			for _, sh := range lazy.shards {
				assertIndexesRebuilt(t, lazy.indexAttrs, sh.load(), "end of history")
			}
			t.Logf("%d ops, %d reads", len(ops), reads)
		})
	}
}

// readOutcome renders what a read returned, passed where a write's error is.
type readOutcome string

func (r readOutcome) Error() string { return string(r) }

// readAs runs one read of q — a Search, MatchAll or Snapshot by kind — and
// renders its outcome.
func readAs(st *Store, kind int, q query.Query) error {
	switch kind {
	case 0:
		res, err := st.Search(q)
		if err != nil {
			return readOutcome(fmt.Sprintf("search %v: %v", q, err))
		}
		return readOutcome(fmt.Sprintf("search %v: %v %v", q, dnsOf(res.Entries), res.Referrals))
	case 1:
		return readOutcome(fmt.Sprintf("matchAll %v: %v", q, dnsOf(st.MatchAll(q))))
	default:
		csn, es := st.Snapshot(q)
		return readOutcome(fmt.Sprintf("snapshot %v: %d %v", q, csn, dnsOf(es)))
	}
}

// TestIndexBuildNeverBlocksWriters pauses a build once its view is frozen.
// Writes that add, remove and change indexed values, a rename and a
// replica-side move all return while the build is paused — on a store whose
// journal bound is far below their number, so only the builder's hold keeps
// the records it replays — and the reader that started the build has not.
// Released, the read returns what a scan finds, and the installed index is
// the one a build from scratch gives. A Load during the pause leaves no
// record to replay, so the build starts over from a new view.
func TestIndexBuildNeverBlocksWriters(t *testing.T) {
	for _, withLoad := range []bool{false, true} {
		t.Run(fmt.Sprint("load=", withLoad), func(t *testing.T) {
			st, err := NewStore([]string{"o=xyz"}, WithIndexes("tel"), WithShards(2), WithJournalLimit(2))
			if err != nil {
				t.Fatal(err)
			}
			person := func(i int, tel ...string) *entry.Entry {
				return entry.New(dn.MustParse(fmt.Sprintf("cn=p%d,o=xyz", i))).Put("objectclass", "person").
					Put("cn", fmt.Sprint("p", i)).Put("tel", tel...)
			}
			load := []*entry.Entry{entry.New(dn.MustParse("o=xyz")).Put("objectclass", "organization").Put("o", "xyz")}
			for i := 0; i < 40; i++ {
				load = append(load, person(i, fmt.Sprint("v", i%4)))
			}
			if err := st.Load(load); err != nil {
				t.Fatal(err)
			}

			frozen, release := make(chan struct{}), make(chan struct{})
			var builds atomic.Int32
			st.buildHook = func([]string) {
				if builds.Add(1) == 1 {
					close(frozen)
					<-release
				}
			}
			q := query.MustNew("o=xyz", query.ScopeSubtree, "(tel=v1)")
			read := make(chan []*entry.Entry, 1)
			go func() { read <- st.MatchAll(q) }()
			<-frozen

			mv := func(i int) dn.DN { return dn.MustParse(fmt.Sprintf("cn=p%d,o=xyz", i)) }
			writes := []func() error{
				func() error { return st.Add(person(100, "v1")) },
				func() error { return st.Modify(mv(1), []Mod{{Op: ModReplace, Attr: "tel", Values: []string{"v2"}}}) },
				func() error { return st.Modify(mv(2), []Mod{{Op: ModAdd, Attr: "tel", Values: []string{"v1"}}}) },
				func() error { return st.Modify(mv(6), []Mod{{Op: ModDelete, Attr: "tel"}}) },
				func() error { return st.Delete(mv(5)) },
				func() error { return st.ModifyDN(mv(9), dn.RDN{Attr: "cn", Value: "p109"}, dn.MustParse("o=xyz")) },
				func() error {
					return st.ApplyOwned([]SyncOp{{Patch: entry.New(mv(113)).Put("tel", "v1", "v3"), From: mv(13)}, {Put: person(200, "V1")}})
				},
			}
			for i, w := range writes {
				if err := w(); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
			if withLoad {
				if err := st.Load([]*entry.Entry{person(300, "v1"), person(301, "v0")}); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case <-read:
				t.Fatal("the read returned while its build was paused")
			default:
			}
			if n := st.ActiveHolds(); n != 1 {
				t.Fatalf("%d holds while the build is paused, want the builder's", n)
			}

			close(release)
			got := dnsOf(<-read)
			if want := scanFor(st, q); !slices.Equal(got, want) {
				t.Fatalf("read after the build: %v, scan %v", got, want)
			}
			for _, sh := range st.shards {
				assertIndexesRebuilt(t, st.indexAttrs, sh.load(), "after the build")
			}
			if wantBuilds := map[bool]int32{false: 1, true: 2}[withLoad]; builds.Load() != wantBuilds {
				t.Errorf("%d builds, want %d", builds.Load(), wantBuilds)
			}
			if n := st.ActiveHolds(); n != 0 {
				t.Errorf("%d holds after the build", n)
			}
		})
	}
}

// TestIndexBuildOnceForConcurrentReaders: readers that all want the same
// unbuilt indexes at once — by Search, MatchAll and Snapshot — get one build
// of each attribute between them, and the same answer.
func TestIndexBuildOnceForConcurrentReaders(t *testing.T) {
	st, err := NewStore([]string{"o=xyz"}, WithIndexes("tel", "dept"), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	load := []*entry.Entry{entry.New(dn.MustParse("o=xyz")).Put("objectclass", "organization").Put("o", "xyz")}
	for i := 0; i < 500; i++ {
		load = append(load, entry.New(dn.MustParse(fmt.Sprintf("cn=p%d,o=xyz", i))).Put("objectclass", "person").
			Put("cn", fmt.Sprint("p", i)).Put("tel", fmt.Sprint("v", i%7)).Put("dept", fmt.Sprint("d", i%5)))
	}
	if err := st.Load(load); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	built := map[string]int{}
	st.buildHook = func(attrs []string) {
		mu.Lock()
		defer mu.Unlock()
		for _, a := range attrs {
			built[a]++
		}
	}
	filters := []string{"(|(tel=v1)(dept=d2))", "(tel=v1)", "(&(dept=d2)(tel=v*))"}
	const readers = 12
	results := make([][]string, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			q := query.MustNew("o=xyz", query.ScopeSubtree, filters[i%len(filters)])
			switch i / len(filters) % 3 {
			case 0:
				results[i] = dnsOf(st.MatchAll(q))
			case 1:
				_, es := st.Snapshot(q)
				results[i] = dnsOf(es)
			default:
				res, err := st.Search(q)
				if err != nil {
					t.Error(err)
					return
				}
				results[i] = dnsOf(res.Entries)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if built["tel"] != 1 || built["dept"] != 1 || len(built) != 2 {
		t.Errorf("builds per attribute: %v, want one each of tel and dept", built)
	}
	for i, got := range results {
		want := scanFor(st, query.MustNew("o=xyz", query.ScopeSubtree, filters[i%len(filters)]))
		if !slices.Equal(got, want) {
			t.Errorf("reader %d (%s): %d entries, scan %d", i, filters[i%len(filters)], len(got), len(want))
		}
	}
}

// TestIndexBuildParallelMatchesEager: a first read that wants four indexes
// at once builds every shard's posting of each in parallel, on a store of 1,
// 2 and 8 shards, while two writers change indexed values, add, delete and
// rename entries. Each writer applies every write to that store and then to
// one whose indexes an early read built; the writers own disjoint units, so
// both stores end with the same entries. There every posting of the lazily
// built indexes equals the eager store's, and both equal ones rebuilt from
// the entries.
func TestIndexBuildParallelMatchesEager(t *testing.T) {
	attrs := []string{"tel", "dept", "mail", "cn"}
	all := query.MustNew("o=xyz", query.ScopeSubtree, "(|(tel=v1)(dept=d1)(mail=m1*)(cn=p1))")
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprint("shards=", shards), func(t *testing.T) {
			var stores [2]*Store
			for i := range stores {
				st, err := NewStore([]string{"o=xyz"}, WithIndexes(attrs...), WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				stores[i] = st
			}
			eager, lazy := stores[0], stores[1]
			eager.MatchAll(all)
			units := []string{"ou=a,o=xyz", "ou=b,o=xyz"}
			person := func(r *rand.Rand, i int, unit string) *entry.Entry {
				return entry.New(dn.MustParse(fmt.Sprintf("cn=p%d,%s", i, unit))).Put("objectclass", "person").
					Put("cn", fmt.Sprint("p", i)).Put("tel", fmt.Sprint("v", r.Intn(5))).
					Put("dept", fmt.Sprint("d", r.Intn(3))).Put("mail", fmt.Sprint("m", r.Intn(40)))
			}
			load := []*entry.Entry{entry.New(dn.MustParse("o=xyz")).Put("objectclass", "organization")}
			r := rand.New(rand.NewSource(int64(shards)))
			for _, unit := range units {
				load = append(load, entry.New(dn.MustParse(unit)).Put("objectclass", "organizationalUnit"))
				for i := 0; i < 150; i++ {
					load = append(load, person(r, i, unit))
				}
			}
			for _, st := range stores {
				es := make([]*entry.Entry, len(load))
				for i, e := range load {
					es[i] = e.Clone()
				}
				if err := st.Load(es); err != nil {
					t.Fatal(err)
				}
			}

			// The build waits for the writers' first writes, and runs
			// beside the rest.
			var written atomic.Int32
			started, enough := make(chan struct{}), make(chan struct{})
			var once sync.Once
			release := func() { once.Do(func() { close(enough) }) }
			lazy.buildHook = func([]string) {
				close(started)
				<-enough
			}
			var wg sync.WaitGroup
			for w, unit := range units {
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer release() // a writer that stops early
					r := rand.New(rand.NewSource(int64(10*shards + w)))
					<-started
					for k := 0; k < 200; k++ {
						d := dn.MustParse(fmt.Sprintf("cn=p%d,%s", r.Intn(200), unit))
						var op func(st *Store) error
						switch r.Intn(6) {
						case 0:
							e := person(r, 200+k, unit)
							op = func(st *Store) error { return st.Add(e.Clone()) }
						case 1:
							op = func(st *Store) error { return st.Delete(d) }
						case 2:
							rdn := dn.RDN{Attr: "cn", Value: fmt.Sprint("p", r.Intn(200))}
							op = func(st *Store) error { return st.ModifyDN(d, rdn, dn.MustParse(unit)) }
						default:
							mods := []Mod{{Op: ModReplace, Attr: attrs[r.Intn(3)], Values: []string{fmt.Sprint("v", r.Intn(5))}},
								{Op: ModAdd, Attr: "mail", Values: []string{fmt.Sprint("m", r.Intn(40))}}}
							op = func(st *Store) error { return st.Modify(d, mods) }
						}
						if errL, errE := op(lazy), op(eager); fmt.Sprint(errL) != fmt.Sprint(errE) {
							t.Errorf("write %d of %s: %v, eager %v", k, unit, errL, errE)
							return
						}
						if written.Add(1) == 20 {
							release()
						}
					}
				}()
			}
			got := dnsOf(lazy.MatchAll(all))
			wg.Wait()
			if len(got) == 0 {
				t.Fatal("the first read found nothing")
			}
			if built := builtIndexes(t, lazy); !slices.Equal(built, []string{"cn", "dept", "mail", "tel"}) {
				t.Fatalf("the first read built %v", built)
			}
			for i := range lazy.shards {
				ls, es := lazy.shards[i].load(), eager.shards[i].load()
				for _, a := range attrs {
					lp, ep := ls.indexes[a].byValue, es.indexes[a].byValue
					if !maps.EqualFunc(lp, ep, slices.Equal) {
						t.Fatalf("shard %d, index %s: %d values built lazily, %d eagerly: %v vs %v", i, a, len(lp), len(ep), lp, ep)
					}
				}
				assertIndexesRebuilt(t, lazy.indexAttrs, ls, "lazy, after the writers")
				assertIndexesRebuilt(t, eager.indexAttrs, es, "eager, after the writers")
			}
			if got, want := dnsOf(lazy.MatchAll(all)), scanFor(lazy, all); !slices.Equal(got, want) {
				t.Fatalf("read after the writers: %v, scan %v", got, want)
			}
		})
	}
}

// BenchmarkFirstIndexedRead times what the first read that wants an index
// costs at 10 k and 100 k entries, while a writer changes the indexed value of
// a random entry every 0.2 ms: the read's latency (a build from its frozen
// view, the catch-up and install, then the read itself), the build alone
// (bulkIndex over the view's shards, in parallel as the store runs it), and the longest any write waited while the read
// was in progress. For scale, the same for a second read, which finds the
// index built.
func BenchmarkFirstIndexedRead(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			var build time.Duration
			var first, second [3]float64 // read latency, longest write wait, writes during the read
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st, err := NewStore([]string{"o=xyz"}, WithIndexes("serialnumber"))
				if err != nil {
					b.Fatal(err)
				}
				load := []*entry.Entry{entry.New(dn.MustParse("o=xyz")).Put("objectclass", "organization").Put("o", "xyz")}
				for k := 0; k < n; k++ {
					load = append(load, entry.New(dn.MustParse(fmt.Sprintf("cn=p%d,o=xyz", k))).Put("objectclass", "person").
						Put("cn", fmt.Sprint("p", k)).Put("serialnumber", fmt.Sprintf("%06d", k)))
				}
				if err := st.Load(load); err != nil {
					b.Fatal(err)
				}
				v := st.freeze()
				start := time.Now()
				forEach(len(v.states), func(i int) { bulkIndex(v.states[i], "serialnumber") })
				build += time.Since(start)

				var reading atomic.Bool
				var longest, during atomic.Int64
				stop, stopped := make(chan struct{}), make(chan struct{})
				go func() {
					defer close(stopped)
					r := rand.New(rand.NewSource(int64(i)))
					for k := 0; ; k++ {
						select {
						case <-stop:
							return
						case <-time.After(200 * time.Microsecond):
						}
						d := dn.MustParse(fmt.Sprintf("cn=p%d,o=xyz", r.Intn(n)))
						overlaps := reading.Load()
						t0 := time.Now()
						_ = st.Modify(d, []Mod{{Op: ModReplace, Attr: "serialnumber", Values: []string{fmt.Sprintf("9%06d", k)}}})
						if took := int64(time.Since(t0)); overlaps || reading.Load() {
							during.Add(1)
							if took > longest.Load() {
								longest.Store(took)
							}
						}
					}
				}()
				measure := func(into *[3]float64) {
					time.Sleep(5 * time.Millisecond) // writes before the read
					longest.Store(0)
					during.Store(0)
					reading.Store(true)
					t0 := time.Now()
					st.MatchAll(query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=0001*)"))
					into[0] += float64(time.Since(t0))
					reading.Store(false)
					time.Sleep(time.Millisecond) // a write under way at the end counts
					into[1] += float64(longest.Load())
					into[2] += float64(during.Load())
				}
				b.StartTimer()
				measure(&first)
				b.StopTimer()
				measure(&second)
				close(stop)
				<-stopped
			}
			per := float64(b.N)
			b.ReportMetric(float64(build)/per/1e6, "build_ms")
			b.ReportMetric(first[0]/per/1e6, "first_read_ms")
			b.ReportMetric(first[1]/per/1e6, "first_write_wait_ms")
			b.ReportMetric(first[2]/per, "first_writes")
			b.ReportMetric(second[0]/per/1e6, "second_read_ms")
			b.ReportMetric(second[1]/per/1e6, "second_write_wait_ms")
		})
	}
}

// TestSubtreeMoveOntoHeldName: a subtree move whose moved root's new name is
// free but a descendant's is held — here by an orphan a replica-side put
// left — is refused before anything moves, as LDAP refuses a rename onto an
// existing entry. It used to insert the descendant over the orphan: the
// orphan's index terms stayed, and no record journaled its removal.
func TestSubtreeMoveOntoHeldName(t *testing.T) {
	st, err := NewStore([]string{"o=xyz"}, WithIndexes("tel"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*entry.Entry{
		entry.New(dn.MustParse("o=xyz")).Put("objectclass", "organization"),
		entry.New(dn.MustParse("ou=a,o=xyz")).Put("objectclass", "organizationalUnit"),
		entry.New(dn.MustParse("cn=x,ou=a,o=xyz")).Put("objectclass", "person").Put("tel", "v1"),
	} {
		if err := st.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	orphan := entry.New(dn.MustParse("cn=x,ou=b,o=xyz")).Put("objectclass", "person").Put("tel", "v9")
	if err := st.ApplyOwned([]SyncOp{{Put: orphan}}); err != nil {
		t.Fatal(err)
	}
	records := len(st.journal)
	err = st.ModifyDN(dn.MustParse("ou=a,o=xyz"), dn.RDN{Attr: "ou", Value: "b"}, dn.MustParse("o=xyz"))
	if !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("moving ou=a onto ou=b, under which cn=x is held: %v, want ErrAlreadyExists", err)
	}
	if n := len(st.journal); n != records {
		t.Errorf("the refused move journaled %d records", n-records)
	}
	for filter, want := range map[string]string{"(tel=v9)": "cn=x,ou=b,o=xyz", "(tel=v1)": "cn=x,ou=a,o=xyz"} {
		got := st.MatchAll(query.MustNew("o=xyz", query.ScopeSubtree, filter))
		if len(got) != 1 || got[0].DN().String() != want {
			t.Errorf("%s matches %v, want %s alone", filter, got, want)
		}
	}
}
