package persist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/ldif"
	"filterdir/internal/query"
	"filterdir/internal/resync/resynctest"
)

func seedStore(t testing.TB) *dit.Store {
	t.Helper()
	st, err := dit.NewStore([]string{"o=xyz"}, dit.WithIndexes("serialnumber"))
	if err != nil {
		t.Fatal(err)
	}
	return fill(t, st)
}

// fill adds the seed content — o=xyz and eight people — to st.
func fill(t testing.TB, st *dit.Store) *dit.Store {
	t.Helper()
	org := entry.New(dn.MustParse("o=xyz"))
	org.Put("objectclass", "organization").Put("o", "xyz")
	if err := st.Add(org); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		e := entry.New(dn.MustParse(fmt.Sprintf("cn=p%d,o=xyz", i)))
		e.Put("objectclass", "person").Put("cn", fmt.Sprintf("p%d", i)).
			Put("sn", "x").Put("serialnumber", fmt.Sprintf("04%02d", i))
		if err := st.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// openDurable opens home as a master does. The journal is closed at the end
// of the test, or sooner by the returned func.
func openDurable(t *testing.T, home Dir, pol JournalRetention) (*dit.Store, func() error) {
	t.Helper()
	st, journal, err := home.Open([]string{"o=xyz"}, pol, dit.WithIndexes("serialnumber"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = journal.Close() })
	return st, journal.Close
}

// seededDurable checkpoints the seed content into home, as a master's first
// run does, and opens it.
func seededDurable(t *testing.T, home Dir) (*dit.Store, func() error) {
	t.Helper()
	if err := home.Checkpoint(seedStore(t)); err != nil {
		t.Fatal(err)
	}
	return openDurable(t, home, JournalRetention{})
}

// commitSince commits st's journal records after the given CSN to home as
// one batch noted with the last one's CSN: what a store Open returned commits
// for the batch, written here for a store that is not durable.
func commitSince(t *testing.T, home Dir, st *dit.Store, after dit.CSN) {
	t.Helper()
	changes, ok := st.ChangesSince(after)
	if !ok || len(changes) == 0 {
		t.Fatalf("no changes after CSN %d to commit", after)
	}
	j, err := home.Journal()
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.Commit(false, changes, csnNote(changes[len(changes)-1].CSN)); err != nil {
		t.Fatal(err)
	}
}

// identical compares two stores entry for entry.
func identical(t *testing.T, a, b *dit.Store) {
	t.Helper()
	all := query.Query{Scope: query.ScopeSubtree}
	if ok, why := resynctest.Converged(a, b, all); !ok {
		t.Fatalf("stores differ: %s", why)
	}
}

func TestDirOpenCheckpointCycle(t *testing.T) {
	home := Dir{Path: filepath.Join(t.TempDir(), "dir")}
	st, closeJournal := seededDurable(t, home)

	// One change of every type, each committed before it returns.
	if err := st.Modify(dn.MustParse("cn=p4,o=xyz"),
		[]dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{"v2"}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(dn.MustParse("cn=p5,o=xyz")); err != nil {
		t.Fatal(err)
	}
	e := entry.New(dn.MustParse("cn=new,o=xyz"))
	e.Put("objectclass", "person").Put("cn", "new").Put("sn", "n")
	if err := st.Add(e); err != nil {
		t.Fatal(err)
	}
	if err := st.ModifyDN(dn.MustParse("cn=p3,o=xyz"), dn.RDN{Attr: "cn", Value: "moved"},
		dn.MustParse("o=xyz")); err != nil {
		t.Fatal(err)
	}

	// Recovery: snapshot + journal replay equals the live store.
	recovered, closeRecovered := openDurable(t, home, JournalRetention{})
	identical(t, st, recovered)
	if recovered.LastCSN() != st.LastCSN() {
		t.Errorf("recovered LastCSN = %d, want %d", recovered.LastCSN(), st.LastCSN())
	}

	// A checkpoint of a store no Open holds folds the journal away;
	// reopening still matches.
	_, _ = closeJournal(), closeRecovered()
	if err := home.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	recovered2, _ := openDurable(t, home, JournalRetention{})
	identical(t, st, recovered2)
}

// TestDirOpenSparseOrphanJournal pins sparse replay: a replica content
// store holds selected entries without their ancestors, so its journal
// contains adds whose parent is absent. Strict Open must reject such a
// journal; OpenSparse must replay it with upsert semantics.
func TestDirOpenSparseOrphanJournal(t *testing.T) {
	home := Dir{Path: filepath.Join(t.TempDir(), "sparse")}
	st, err := dit.NewStore([]string{""})
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot is empty; every entry arrives via the journal, orphan-style
	// (parent o=xyz never stored), exactly as live ApplySync upserts them.
	if err := home.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	watermark := st.LastCSN()
	for i := 0; i < 3; i++ {
		e := entry.New(dn.MustParse(fmt.Sprintf("cn=s%d,o=xyz", i)))
		e.Put("objectclass", "person").Put("cn", fmt.Sprintf("s%d", i)).Put("sn", "x")
		if err := st.Upsert(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.RemoveAny(dn.MustParse("cn=s2,o=xyz")); err != nil {
		t.Fatal(err)
	}
	commitSince(t, home, st, watermark)

	if _, _, err := home.Open([]string{""}, JournalRetention{}); err == nil {
		t.Error("strict Open replayed an orphan add without error")
	}
	recovered, _, err := home.OpenSparse([]string{""})
	if err != nil {
		t.Fatal(err)
	}
	identical(t, st, recovered)
}

// TestDirOpenSparseReplaysReplace pins the journal form of a sparse store's
// in-place replace: an upsert of a held entry is journaled as a modify, and
// the record must carry the attribute changes, or AppendChange writes an
// empty "changetype: modify" and replay restores the image of the last full
// snapshot — the stale entry a restarted cascade tier then kept for good,
// having resumed from a newer cookie.
func TestDirOpenSparseReplaysReplace(t *testing.T) {
	testSparseReplay(t, func(st *dit.Store, next *entry.Entry) error { return st.Upsert(next) })
}

// TestDirOpenSparseReplaysPatch: the same change applied as a patch.
func TestDirOpenSparseReplaysPatch(t *testing.T) {
	testSparseReplay(t, func(st *dit.Store, next *entry.Entry) error {
		patch := entry.New(next.DN()).Put("telephoneNumber", next.Values("telephoneNumber")...).Put("fax")
		return st.ApplyOwned([]dit.SyncOp{{Patch: patch}})
	})
}

// TestDirOpenSparseReplaysMove: a move at a sparse store is journaled as a
// rename and a modify, and the rename names a new superior the store does not
// hold — a filter replica holds no parents. Strict replay refuses it;
// sparse replay must re-key the entry alone, as the live move did, and
// then patch it. A move without attributes is the rename alone.
func TestDirOpenSparseReplaysMove(t *testing.T) {
	home := Dir{Path: filepath.Join(t.TempDir(), "sparse")}
	st, err := dit.NewStore([]string{""})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"cn=s0,o=xyz", "cn=kid,cn=s0,o=xyz", "cn=s9,o=xyz"} {
		if err := st.Upsert(entry.New(dn.MustParse(d)).Put("objectclass", "person").Put("telephoneNumber", "1").Put("fax", "9")); err != nil {
			t.Fatal(err)
		}
	}
	if err := home.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	watermark := st.LastCSN()
	patch := entry.New(dn.MustParse("cn=s1,ou=elsewhere,o=xyz")).Put("cn", "s1").Put("telephoneNumber", "2").Put("fax")
	if err := st.ApplyOwned([]dit.SyncOp{
		{From: dn.MustParse("cn=s0,o=xyz"), Patch: patch},
		{From: dn.MustParse("cn=s9,o=xyz"), Patch: entry.New(dn.MustParse("cn=s8,o=xyz"))},
	}); err != nil {
		t.Fatal(err)
	}
	commitSince(t, home, st, watermark)
	if _, _, err := home.Open([]string{""}, JournalRetention{}); err == nil {
		t.Error("strict Open replayed a rename under an absent superior without error")
	}
	recovered, _, err := home.OpenSparse([]string{""})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := recovered.Get(patch.DN())
	if got == nil || got.First("telephoneNumber") != "2" || got.Has("fax") || got.First("cn") != "s1" {
		t.Errorf("recovered moved entry = %v", got)
	}
	identical(t, st, recovered)
}

// testSparseReplay checkpoints a sparse store holding one entry, replaces a
// value and removes an attribute of it through change, appends the journal
// and expects OpenSparse to recover the store as it stands.
func testSparseReplay(t *testing.T, change func(st *dit.Store, next *entry.Entry) error) {
	home := Dir{Path: filepath.Join(t.TempDir(), "sparse")}
	st, err := dit.NewStore([]string{""})
	if err != nil {
		t.Fatal(err)
	}
	d := dn.MustParse("cn=s0,o=xyz")
	image := func(tel string) *entry.Entry {
		return entry.New(d).Put("objectclass", "person").Put("cn", "s0").Put("telephoneNumber", tel).Put("fax", "9")
	}
	if err := st.Upsert(image("1")); err != nil {
		t.Fatal(err)
	}
	if err := home.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	watermark := st.LastCSN()
	v2 := image("2")
	_ = v2.DeleteValues("fax")
	if err := change(st, v2); err != nil {
		t.Fatal(err)
	}
	commitSince(t, home, st, watermark)
	recovered, _, err := home.OpenSparse([]string{""})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := recovered.Get(d)
	if tel := got.Values("telephoneNumber"); len(tel) != 1 || tel[0] != "2" {
		t.Errorf("recovered telephoneNumber = %v, want [2]", tel)
	}
	identical(t, st, recovered)
}

func TestDirOpenFreshPath(t *testing.T) {
	home := Dir{Path: filepath.Join(t.TempDir(), "fresh")}
	st, _ := openDurable(t, home, JournalRetention{})
	if st.Len() != 0 || st.LastCSN() != 0 {
		t.Errorf("fresh store holds %d entries at CSN %d", st.Len(), st.LastCSN())
	}
}

// TestCommitsIncremental: each write is its own batch on top of the last,
// and a write that changes nothing commits nothing.
func TestCommitsIncremental(t *testing.T) {
	home := Dir{Path: filepath.Join(t.TempDir(), "inc")}
	st, _ := seededDurable(t, home)
	for _, sn := range []string{"a", "b"} {
		if err := st.Modify(dn.MustParse("cn=p1,o=xyz"),
			[]dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{sn}}}); err != nil {
			t.Fatal(err)
		}
	}
	size := journalSize(t, home)
	if err := st.Delete(dn.MustParse("cn=absent,o=xyz")); err == nil {
		t.Fatal("deleted an absent entry")
	}
	if got := journalSize(t, home); got != size {
		t.Errorf("a failed write grew the journal %d -> %d B", size, got)
	}
	raw, err := os.ReadFile(filepath.Join(home.Path, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte("\n"+commitMarker)); n != 2 {
		t.Errorf("journal holds %d batches, want 2:\n%s", n, raw)
	}
	recovered, _ := openDurable(t, home, JournalRetention{})
	identical(t, st, recovered)
}

// journalFile is the journal file of the given generation holding body.
func journalFile(gen int, body []byte) []byte {
	return append([]byte(fmt.Sprintf("%s%d\n", journalHeader, gen)), body...)
}

// tearTail truncates serialized journal bytes inside the final change
// record — the shape a crash mid-append leaves on disk — by cutting right
// after the last record's "changetype" keyword.
func tearTail(t *testing.T, journal []byte) []byte {
	t.Helper()
	idx := bytes.LastIndex(journal, []byte("changetype"))
	if idx < 0 {
		t.Fatal("journal holds no change records to tear")
	}
	return journal[:idx+len("changety")]
}

// burst applies one change of each type and returns their journal records.
func burst(t *testing.T, st *dit.Store) []dit.Change {
	t.Helper()
	base := st.LastCSN()
	if err := st.Modify(dn.MustParse("cn=p1,o=xyz"),
		[]dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{"crashed"}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(dn.MustParse("cn=p2,o=xyz")); err != nil {
		t.Fatal(err)
	}
	e := entry.New(dn.MustParse("cn=late,o=xyz"))
	e.Put("objectclass", "person").Put("cn", "late").Put("sn", "l")
	if err := st.Add(e); err != nil {
		t.Fatal(err)
	}
	changes, ok := st.ChangesSince(base)
	if !ok {
		t.Fatal("journal trimmed")
	}
	return changes
}

func TestDirOpenRepairsTornJournal(t *testing.T) {
	home := Dir{Path: filepath.Join(t.TempDir(), "torn")}
	st, closeJournal := seededDurable(t, home)
	// Three durable batches: a modify, a delete, an add.
	burst(t, st)
	if err := closeJournal(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: truncate the journal file inside its
	// final record, which takes the last batch's commit marker with it.
	jPath := filepath.Join(home.Path, "journal.ldif")
	raw, err := os.ReadFile(jPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jPath, tearTail(t, raw), 0o644); err != nil {
		t.Fatal(err)
	}

	recovered, _ := openDurable(t, home, JournalRetention{})
	if _, ok := recovered.Get(dn.MustParse("cn=late,o=xyz")); ok {
		t.Error("torn final record was applied during recovery")
	}
	if _, ok := recovered.Get(dn.MustParse("cn=p2,o=xyz")); ok {
		t.Error("committed batch before the tear was not applied")
	}

	// Open must also have repaired the file: the journal now parses
	// strictly, and commits continue cleanly after the repair.
	f, err := os.Open(jPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ldif.ReadChanges(bufio.NewReader(f))
	f.Close()
	if err != nil {
		t.Fatalf("repaired journal does not parse strictly: %v", err)
	}
	if len(recs) != 2 {
		t.Errorf("repaired journal holds %d records, want 2", len(recs))
	}
	if err := recovered.Delete(dn.MustParse("cn=p3,o=xyz")); err != nil {
		t.Fatal(err)
	}
	reopened, _ := openDurable(t, home, JournalRetention{})
	identical(t, recovered, reopened)
}

// TestDirOpenJournalWithoutMarker: a journal holding complete records but no
// commit marker is a first batch whose append never finished — every writer
// ends a batch with its marker — so none of it is replayed (all-or-none), and
// the file is repaired to its header line, which later commits extend cleanly.
func TestDirOpenJournalWithoutMarker(t *testing.T) {
	home := Dir{Path: filepath.Join(t.TempDir(), "nomarker")}
	st := seedStore(t)
	if err := home.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	var records []byte
	for i, c := range burst(t, st) {
		if i > 0 {
			records = append(records, '\n')
		}
		var err error
		if records, err = ldif.AppendChange(records, c); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		journal []byte
	}{
		{"complete records", records},
		{"torn record", tearTail(t, records)},
		{"blank", []byte("\n\n")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jPath := filepath.Join(home.Path, "journal.ldif")
			if err := os.WriteFile(jPath, journalFile(1, tc.journal), 0o644); err != nil {
				t.Fatal(err)
			}
			recovered, _ := openDurable(t, home, JournalRetention{})
			identical(t, seedStore(t), recovered)
			if raw, err := os.ReadFile(jPath); err != nil || !bytes.Equal(raw, journalFile(1, nil)) {
				t.Errorf("journal after open = %q (err %v), want the header line alone", raw, err)
			}
			if err := recovered.Delete(dn.MustParse("cn=p3,o=xyz")); err != nil {
				t.Fatal(err)
			}
			reopened, _ := openDurable(t, home, JournalRetention{})
			identical(t, recovered, reopened)
		})
	}
}

// TestDirOpenRejectsDamagedJournal: damage a crash cannot leave behind is
// not recovered from. A torn record followed by a committed batch is
// corruption in the middle, not a tail; a committed batch that appears twice
// does not continue the snapshot. Open must refuse both instead of skipping
// records.
func TestDirOpenRejectsDamagedJournal(t *testing.T) {
	st := seedStore(t)
	changes := burst(t, seedStore(t))
	batch := func(cs []dit.Change) []byte {
		var b bytes.Buffer
		if err := AppendJournal(&b, cs); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, tc := range []struct {
		name    string
		journal []byte
	}{
		{"torn record before a committed batch",
			join(tearTail(t, batch(changes[:2])), []byte("\n\n"), batch(changes[2:]))},
		{"committed batch replayed twice", join(batch(changes), batch(changes))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			home := Dir{Path: filepath.Join(t.TempDir(), "damaged")}
			if err := home.Checkpoint(st); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(home.Path, "journal.ldif"), journalFile(1, tc.journal), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := home.Open([]string{"o=xyz"}, JournalRetention{})
			if err == nil {
				t.Fatal("Open accepted the damaged journal")
			}
			t.Logf("refused: %v", err)
		})
	}
}

// TestDirOpenSparseImagesWithoutObjectClass: a replica's snapshot may hold
// images whose stored query selected no objectclass, and its journal modify
// records of them. OpenSparse restores and replays them; strict Open, a
// master's, refuses the snapshot and names the entry.
func TestDirOpenSparseImagesWithoutObjectClass(t *testing.T) {
	home := Dir{Path: t.TempDir()}
	j, err := home.Journal()
	if err != nil {
		t.Fatal(err)
	}
	d := dn.MustParse("cn=s0,o=xyz")
	image := entry.New(d).Put("cn", "s0").Put("sn", "x")
	if err := j.Snapshot([]*entry.Entry{image}, "s1"); err != nil {
		t.Fatal(err)
	}
	mods := []dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{"y"}}}
	if _, err := j.Commit(false, []dit.Change{{Type: dit.ChangeModify, DN: d, Mods: mods}}, "s2"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, note, err := home.OpenSparse([]string{""})
	if err != nil {
		t.Fatal(err)
	}
	want := entry.New(d).Put("cn", "s0").Put("sn", "y")
	if got := st.All(); note != "s2" || len(got) != 1 || !got[0].Equal(want) {
		t.Fatalf("OpenSparse restored %v under note %q, want %s under s2", got, note, want)
	}
	_, _, err = home.Open([]string{""}, JournalRetention{})
	if !errors.Is(err, dit.ErrSchema) || !strings.Contains(err.Error(), "cn=s0,o=xyz") {
		t.Errorf("strict Open of an objectclass-less snapshot: %v, want ErrSchema naming the entry", err)
	}
}
