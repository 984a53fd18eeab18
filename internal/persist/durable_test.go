package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
)

// sameContent reports how got differs from want, two entry lists in
// normalized-DN order ("" when they hold the same entries).
func sameContent(got, want []*entry.Entry) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].DN().Norm() != want[i].DN().Norm() || !got[i].Equal(want[i]) {
			return fmt.Sprintf("entry %d is %q, want %q", i, got[i].DN(), want[i].DN())
		}
	}
	return ""
}

// TestConcurrentWritersSurviveDrop: writers race on a store Dir.Open returned,
// and it is dropped without a checkpoint, as by kill -9. The reopened store
// holds every acknowledged write, stands at the highest acknowledged CSN and
// gives the next write the CSN after it: no write is lost, no CSN is issued
// twice.
func TestConcurrentWritersSurviveDrop(t *testing.T) {
	home := Dir{Path: t.TempDir()}
	st, closeJournal := seededDurable(t, home)
	const writers, each = 8, 25
	csns := make([][]dit.CSN, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				e := person(w*each+i, "x")
				csn, err := st.ApplyCSN(dit.Change{Type: dit.ChangeAdd, DN: e.DN(), After: e})
				if err != nil {
					t.Error(err)
					return
				}
				csns[w] = append(csns[w], csn)
			}
		}(w)
	}
	wg.Wait()
	if err := closeJournal(); err != nil {
		t.Fatal(err)
	}

	reopened, _ := openDurable(t, home)
	var top dit.CSN
	for w, acked := range csns {
		for i, csn := range acked {
			top = max(top, csn)
			if _, ok := reopened.Get(person(w*each+i, "x").DN()); !ok {
				t.Errorf("acknowledged add at CSN %d lost", csn)
			}
		}
	}
	identical(t, st, reopened)
	if reopened.LastCSN() != top {
		t.Errorf("reopened at CSN %d, want the highest acknowledged %d", reopened.LastCSN(), top)
	}
	next, err := reopened.ApplyCSN(dit.Change{Type: dit.ChangeDelete, DN: dn.MustParse("cn=p0,o=xyz")})
	if err != nil || next != top+1 {
		t.Errorf("next write got CSN %d (err %v), want %d", next, err, top+1)
	}
}

// TestReopenKeepsLastCSN: a reopened directory's CSNs continue from its last
// note — the snapshot's, when nothing was committed since — instead of
// restarting at zero and issuing the snapshot's CSNs a second time. History
// from before the reopen is not offered: no session survives to ask for it.
func TestReopenKeepsLastCSN(t *testing.T) {
	home := Dir{Path: t.TempDir()}
	seed := seedStore(t)
	if err := home.Checkpoint(seed); err != nil {
		t.Fatal(err)
	}
	last := seed.LastCSN()
	st, _ := openDurable(t, home)
	if st.LastCSN() != last {
		t.Fatalf("reopened at CSN %d, the snapshot's note says %d", st.LastCSN(), last)
	}
	if changes, ok := st.ChangesSince(last); !ok || len(changes) != 0 {
		t.Errorf("ChangesSince(%d) = %d changes, ok %v; want none, ok", last, len(changes), ok)
	}
	if _, ok := st.ChangesSince(last - 1); ok {
		t.Errorf("ChangesSince(%d) answered from history the reopen does not hold", last-1)
	}
	csn, err := st.ApplyCSN(dit.Change{Type: dit.ChangeDelete, DN: dn.MustParse("cn=p0,o=xyz")})
	if err != nil || csn != last+1 {
		t.Errorf("first write after the reopen got CSN %d (err %v), want %d", csn, err, last+1)
	}
}

// TestEveryByteCutReopensToABatchPrefix cuts a durable store's journal at
// every byte of every batch. Each cut reopens to exactly the state after a
// prefix of the acknowledged batches — those whose commit line the cut keeps
// whole — and stands at the CSN of that prefix's last batch.
func TestEveryByteCutReopensToABatchPrefix(t *testing.T) {
	home := Dir{Path: filepath.Join(t.TempDir(), "live")}
	st, closeJournal := seededDurable(t, home)
	type state struct {
		end     int64 // journal size once the batch is committed
		csn     dit.CSN
		content []*entry.Entry
	}
	states := []state{{0, st.LastCSN(), st.All()}}
	ou := entry.New(dn.MustParse("ou=a,o=xyz")).Put("objectclass", "organizationalUnit").Put("ou", "a")
	kid := entry.New(dn.MustParse("cn=k,ou=a,o=xyz")).Put("objectclass", "person").Put("cn", "k").Put("sn", "k")
	for i, write := range []func() error{
		func() error {
			return st.Modify(dn.MustParse("cn=p1,o=xyz"), []dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{"y"}}})
		},
		func() error { return st.Add(ou) },
		func() error { return st.Add(kid) },
		func() error { // two records: the OU and its child
			return st.ModifyDN(ou.DN(), dn.RDN{Attr: "ou", Value: "b"}, dn.MustParse("o=xyz"))
		},
		func() error { return st.Delete(dn.MustParse("cn=p2,o=xyz")) },
	} {
		if err := write(); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		states = append(states, state{journalSize(t, home), st.LastCSN(), st.All()})
	}
	if err := closeJournal(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(home.Path, journalName))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(home.Path, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	cut := Dir{Path: filepath.Join(t.TempDir(), "cut")}
	if err := os.MkdirAll(cut.Path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cut.Path, snapshotName), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	for at := 0; at <= len(raw); at++ {
		if err := os.WriteFile(filepath.Join(cut.Path, journalName), raw[:at], 0o644); err != nil {
			t.Fatal(err)
		}
		want := states[0]
		for _, s := range states {
			if s.end <= int64(at) {
				want = s
			}
		}
		got, journal, err := cut.Open([]string{"o=xyz"})
		if err != nil {
			t.Fatalf("cut at byte %d of %d: %v", at, len(raw), err)
		}
		_ = journal.Close()
		if why := sameContent(got.All(), want.content); why != "" || got.LastCSN() != want.csn {
			t.Fatalf("cut at byte %d of %d: CSN %d, want %d; %s", at, len(raw), got.LastCSN(), want.csn, why)
		}
	}
}

// TestFailedCommitFailsLaterWrites injects an fsync failure. The write whose
// batch it hits fails and so does every later write, the store now holding a
// change its journal does not; the batch wakes no persist-mode consumer; and
// a reopen holds exactly the writes acknowledged before the failure.
func TestFailedCommitFailsLaterWrites(t *testing.T) {
	home := Dir{Path: t.TempDir()}
	if err := home.Checkpoint(seedStore(t)); err != nil {
		t.Fatal(err)
	}
	st, journal, err := home.Open([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	j := journal.(*Journal)
	acked := []dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{"acked"}}}
	if err := st.Modify(dn.MustParse("cn=p1,o=xyz"), acked); err != nil {
		t.Fatal(err)
	}

	errDisk := errors.New("injected fsync failure")
	j.Sync = func(*os.File) error { return errDisk }
	signal := st.ChangeSignal()
	if err := st.Delete(dn.MustParse("cn=p2,o=xyz")); !errors.Is(err, errDisk) {
		t.Errorf("write in the failed batch returned %v, want the fsync error", err)
	}
	j.Sync = (*os.File).Sync
	if err := st.Delete(dn.MustParse("cn=p3,o=xyz")); !errors.Is(err, errDisk) {
		t.Errorf("write after the failed batch returned %v, want the fsync error", err)
	}
	if _, held := st.Get(dn.MustParse("cn=p3,o=xyz")); !held {
		t.Error("a write after the failure applied")
	}
	select {
	case <-signal:
		t.Error("the failed batch fired the change signal")
	default:
	}

	want := seedStore(t)
	if err := want.Modify(dn.MustParse("cn=p1,o=xyz"), acked); err != nil {
		t.Fatal(err)
	}
	reopened, _ := openDurable(t, home)
	identical(t, want, reopened)
}

// TestStoreRefusesBadAttributeNames: an in-process Modify or Add naming an
// attribute that an LDIF line cannot carry is refused by the store, before
// its journal sees it, so the directory reopens with the writes it took. The
// Modify used to be committed, and the reopen then failed: "replace: x:y"
// opens no mod.
func TestStoreRefusesBadAttributeNames(t *testing.T) {
	home := Dir{Path: t.TempDir()}
	st, closeJournal := seededDurable(t, home)
	p0 := dn.MustParse("cn=p0,o=xyz")
	if err := st.Modify(p0, []dit.Mod{{Op: dit.ModReplace, Attr: "x:y", Values: []string{"1"}}}); !errors.Is(err, dit.ErrBadAttr) {
		t.Errorf("Modify of x:y = %v, want ErrBadAttr", err)
	}
	bad := entry.New(dn.MustParse("cn=bad,o=xyz")).Put("objectclass", "person").Put("x:y", "1")
	if err := st.Add(bad); !errors.Is(err, dit.ErrBadAttr) {
		t.Errorf("Add carrying x:y = %v, want ErrBadAttr", err)
	}
	if err := st.Modify(p0, []dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{"kept"}}}); err != nil {
		t.Fatal(err)
	}
	if err := closeJournal(); err != nil {
		t.Fatal(err)
	}
	reopened, _ := openDurable(t, home)
	identical(t, st, reopened)
	if got, _ := reopened.Get(p0); got.First("sn") != "kept" || got.Has("x:y") {
		t.Errorf("reopened %s = %v", p0, got)
	}
}

// TestSubtreeRenameReopens: a subtree rename journals one modrdn record per
// moved entry, and replay re-keys each entry alone. Reopening yields the live
// store, naming attribute included, and the moved subtree's child counts
// hold: the subtree is renamed again and deleted leaf by leaf. The live
// store keeps one journal record in memory, fewer than the rename's batch
// holds: the batch is committed before it is trimmed.
func TestSubtreeRenameReopens(t *testing.T) {
	home := Dir{Path: t.TempDir()}
	if err := home.Checkpoint(seedStore(t)); err != nil {
		t.Fatal(err)
	}
	st, journal, err := home.Open([]string{"o=xyz"}, dit.WithJournalLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*entry.Entry{
		entry.New(dn.MustParse("ou=a,o=xyz")).Put("objectclass", "organizationalUnit").Put("ou", "a"),
		entry.New(dn.MustParse("cn=p,ou=a,o=xyz")).Put("objectclass", "person").Put("cn", "p").Put("sn", "p"),
		entry.New(dn.MustParse("cn=q,cn=p,ou=a,o=xyz")).Put("objectclass", "person").Put("cn", "q").Put("sn", "q"),
	} {
		if err := st.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.ModifyDN(dn.MustParse("ou=a,o=xyz"), dn.RDN{Attr: "ou", Value: "b"}, dn.MustParse("o=xyz")); err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, _ := openDurable(t, home)
	identical(t, st, reopened)
	if got, _ := reopened.Get(dn.MustParse("ou=b,o=xyz")); got == nil || got.First("ou") != "b" {
		t.Errorf("renamed OU = %v, want ou: b", got)
	}
	if err := reopened.ModifyDN(dn.MustParse("ou=b,o=xyz"), dn.RDN{Attr: "ou", Value: "c"}, dn.MustParse("o=xyz")); err != nil {
		t.Fatal(err)
	}
	if _, ok := reopened.Get(dn.MustParse("cn=q,cn=p,ou=c,o=xyz")); !ok {
		t.Error("second rename left the grandchild behind")
	}
	if err := reopened.Delete(dn.MustParse("ou=c,o=xyz")); !errors.Is(err, dit.ErrNotLeaf) {
		t.Errorf("delete of the OU with children = %v, want ErrNotLeaf", err)
	}
	for _, d := range []string{"cn=q,cn=p,ou=c,o=xyz", "cn=p,ou=c,o=xyz", "ou=c,o=xyz"} {
		if err := reopened.Delete(dn.MustParse(d)); err != nil {
			t.Fatalf("delete %s: %v", d, err)
		}
	}
	again, _ := openDurable(t, home)
	identical(t, reopened, again)
}

// BenchmarkMasterCommit states what durability costs a master: writers each
// modify an entry of their own, concurrently, on a store Dir.Open returned
// ("durable") and on the same content in memory ("memory"). The commit
// pipeline's batches are the group commit: fsyncs/write falls as writers are
// added. us/write is the mean latency a writer sees; ns/op is wall time per
// write. The limit=4096 row bounds the in-memory journal as ldapmaster does
// by default, and fills it before the clock starts: every timed commit trims
// one record.
func BenchmarkMasterCommit(b *testing.B) {
	for _, writers := range []int{1, 8, 64} {
		for _, durable := range []bool{true, false} {
			mode := "memory"
			if durable {
				mode = "durable"
			}
			b.Run(fmt.Sprintf("writers=%d/%s", writers, mode), func(b *testing.B) {
				benchmarkMasterCommit(b, writers, durable, 0)
			})
		}
	}
	b.Run("writers=1/memory/limit=4096", func(b *testing.B) {
		benchmarkMasterCommit(b, 1, false, 4096)
	})
}

func benchmarkMasterCommit(b *testing.B, writers int, durable bool, limit int) {
	st, err := dit.NewStore([]string{"o=xyz"}, dit.WithIndexes("serialnumber"), dit.WithJournalLimit(limit))
	if err != nil {
		b.Fatal(err)
	}
	fill(b, st)
	var syncs atomic.Int64
	if durable {
		home := Dir{Path: b.TempDir()}
		if err := home.Checkpoint(st); err != nil {
			b.Fatal(err)
		}
		var journal io.Closer
		if st, journal, err = home.Open([]string{"o=xyz"}, dit.WithIndexes("serialnumber")); err != nil {
			b.Fatal(err)
		}
		defer journal.Close()
		journal.(*Journal).Sync = func(f *os.File) error {
			syncs.Add(1)
			return f.Sync()
		}
	}
	for w := 0; w < writers; w++ {
		if err := st.Add(person(w, "x")); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < limit; i++ {
		if err := st.Modify(person(0, "x").DN(), []dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{fmt.Sprint(i)}}}); err != nil {
			b.Fatal(err)
		}
	}
	syncs.Store(0)
	var next, latency atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(d dn.DN) {
			defer wg.Done()
			for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
				start := time.Now()
				if err := st.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{fmt.Sprint(i)}}}); err != nil {
					b.Error(err)
					return
				}
				latency.Add(int64(time.Since(start)))
			}
		}(person(w, "x").DN())
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(syncs.Load())/float64(b.N), "fsyncs/write")
	b.ReportMetric(float64(latency.Load())/1e3/float64(b.N), "us/write")
}
