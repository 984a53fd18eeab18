package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/ldif"
)

// TestCheckpointCrashBeforeJournalTruncate is the regression for a crash
// between Checkpoint's snapshot rename and its journal truncation: the
// directory then holds the new snapshot beside the journal it embodies.
// Replaying that journal a second time used to fail ("replay add: entry
// already exists") and the master could not restart; the snapshot's
// generation now tells the journal is stale and it is dropped unread.
func TestCheckpointCrashBeforeJournalTruncate(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		t.Run(fmt.Sprintf("sparse=%v", sparse), func(t *testing.T) {
			home := Dir{Path: filepath.Join(t.TempDir(), "crash")}
			open := home.Open
			if sparse {
				open = home.OpenSparse
			}
			st := seedStore(t)
			if err := home.Checkpoint(st); err != nil {
				t.Fatal(err)
			}
			w := st.LastCSN()
			burst(t, st)
			if _, err := home.AppendChanges(st, w); err != nil {
				t.Fatal(err)
			}
			jPath := filepath.Join(home.Path, journalName)
			folded, err := os.ReadFile(jPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := home.Checkpoint(st); err != nil {
				t.Fatal(err)
			}
			// The crash: the rename happened, the truncation did not.
			if err := os.WriteFile(jPath, folded, 0o644); err != nil {
				t.Fatal(err)
			}
			recovered, note, err := open([]string{"o=xyz"})
			if err != nil {
				t.Fatalf("open beside the pre-truncate journal: %v", err)
			}
			identical(t, st, recovered)
			if want := csnNote(st.LastCSN()); note != want {
				t.Errorf("note = %q, want the snapshot's %q", note, want)
			}
			// The directory keeps working: a later batch lands and replays.
			w = st.LastCSN()
			if err := st.Delete(dn.MustParse("cn=p3,o=xyz")); err != nil {
				t.Fatal(err)
			}
			if _, err := home.AppendChanges(st, w); err != nil {
				t.Fatal(err)
			}
			reopened, _, err := open([]string{"o=xyz"})
			if err != nil {
				t.Fatal(err)
			}
			identical(t, st, reopened)
		})
	}
}

// TestJournalAheadOfSnapshotRefused: a journal of a newer generation than the
// snapshot beside it extends content that is not there.
func TestJournalAheadOfSnapshotRefused(t *testing.T) {
	home := Dir{Path: t.TempDir()}
	if err := home.Checkpoint(seedStore(t)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(home.Path, journalName), journalFile(2, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := home.Open([]string{"o=xyz"}); err == nil {
		t.Fatal("Open replayed a journal ahead of its snapshot")
	}
}

// TestHeaderlessFilesAreGenerationZero: a directory written before headers
// existed — bare snapshot, bare journal with CSN commit lines — still opens,
// and its first checkpoint moves it to generation one.
func TestHeaderlessFilesAreGenerationZero(t *testing.T) {
	home := Dir{Path: t.TempDir()}
	st := seedStore(t)
	var snap, batch bytes.Buffer
	if err := ldif.Write(&snap, st.All()...); err != nil {
		t.Fatal(err)
	}
	if err := AppendJournal(&batch, burst(t, st)); err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{snapshotName: snap.Bytes(), journalName: batch.Bytes()} {
		if err := os.WriteFile(filepath.Join(home.Path, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recovered, note, err := home.Open([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	identical(t, st, recovered)
	if want := csnNote(st.LastCSN()); note != want {
		t.Errorf("note = %q, want %q", note, want)
	}
	if err := home.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(home.Path, snapshotName))
	if err != nil || !bytes.HasPrefix(raw, []byte(snapshotHeader+"1 ")) {
		t.Errorf("snapshot after the first checkpoint starts %.40q (err %v), want generation 1", raw, err)
	}
}

func person(i int, sn string) *entry.Entry {
	return entry.New(dn.MustParse(fmt.Sprintf("cn=j%d,o=xyz", i))).
		Put("objectclass", "person").Put("cn", fmt.Sprintf("j%d", i)).Put("sn", sn)
}

// TestCommitNotesResetAndSnapshot drives the handle the way a leaf does:
// every commit's note comes back as the state's, a reset drops snapshot and
// earlier batches alike, a note-only commit moves the note alone, and a
// snapshot carries its note until the next commit.
func TestCommitNotesResetAndSnapshot(t *testing.T) {
	home := Dir{Path: t.TempDir()}
	add := func(i int) dit.Change {
		e := person(i, "x")
		return dit.Change{Type: dit.ChangeAdd, DN: e.DN(), After: e}
	}
	recovered := func(j *Journal) (held []string, note string) {
		t.Helper()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		st, note, err := home.OpenSparse([]string{""})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range st.All() {
			held = append(held, e.First("cn"))
		}
		return held, note
	}
	reopen := func() *Journal {
		t.Helper()
		j, err := home.Journal()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	check := func(j *Journal, wantHeld, wantNote string) *Journal {
		t.Helper()
		held, note := recovered(j)
		if got := strings.Join(held, ","); got != wantHeld || note != wantNote {
			t.Fatalf("recovered %q under note %q, want %q under %q", got, note, wantHeld, wantNote)
		}
		return reopen()
	}

	j := check(reopen(), "", "")
	if _, err := j.Commit(false, []dit.Change{add(0), add(1)}, "n1"); err != nil {
		t.Fatal(err)
	}
	j = check(j, "j0,j1", "n1")
	if err := j.Snapshot([]*entry.Entry{person(0, "x"), person(1, "x")}, "s1"); err != nil {
		t.Fatal(err)
	}
	j = check(j, "j0,j1", "s1")
	if _, err := j.Commit(false, []dit.Change{add(2)}, "n2"); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Commit(false, nil, "n3"); err != nil {
		t.Fatal(err)
	}
	j = check(j, "j0,j1,j2", "n3")
	if _, err := j.Commit(true, []dit.Change{add(7)}, "n4"); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Commit(false, []dit.Change{add(8)}, "n5"); err != nil {
		t.Fatal(err)
	}
	j = check(j, "j7,j8", "n5")
	if _, err := j.Commit(false, nil, "two\nlines"); err == nil {
		t.Error("a note spanning lines was committed")
	}
	_ = j.Close()
}

// TestJournalDue: without a policy a snapshot is due once the journal has
// outgrown the floor and the snapshot it extends — so snapshot bytes written
// never exceed journal bytes written before them — and a policy's bounds
// replace that rule.
func TestJournalDue(t *testing.T) {
	j := &Journal{}
	for _, tc := range []struct {
		size, snap int64
		pol        JournalRetention
		want       bool
	}{
		{0, 0, JournalRetention{}, false},
		{journalFloor, 0, JournalRetention{}, false},
		{journalFloor + 1, 0, JournalRetention{}, true},
		{journalFloor + 1, 2 * journalFloor, JournalRetention{}, false},
		{2*journalFloor + 1, 2 * journalFloor, JournalRetention{}, true},
		{100, 1 << 30, JournalRetention{MaxBytes: 99}, true},
		{100, 0, JournalRetention{MaxBytes: 100}, false},
		{0, 0, JournalRetention{MaxBytes: 1}, false},
	} {
		j.size, j.snapSize = tc.size, tc.snap
		if got := j.Due(tc.pol); got != tc.want {
			t.Errorf("journal of %d B on a snapshot of %d B under %q: due = %v, want %v",
				tc.size, tc.snap, tc.pol, got, tc.want)
		}
	}
}

// FuzzJournalRecover hands OpenSparse arbitrary bytes as journal.ldif. It
// must not panic; whatever it recovers it recovers again unchanged from the
// file it left behind, a caller folding Batches itself ends with the records
// and the note recover does, and the file takes a further commit.
func FuzzJournalRecover(f *testing.F) {
	var batch bytes.Buffer
	st, _ := dit.NewStore([]string{""})
	for i := 0; i < 3; i++ {
		_ = st.Upsert(person(i, "x"))
	}
	_ = st.RemoveAny(dn.MustParse("cn=j1,o=xyz"))
	changes, _ := st.ChangesSince(0)
	_ = AppendJournal(&batch, changes)
	whole := journalFile(0, batch.Bytes())
	f.Add(whole)
	f.Add(whole[:len(whole)-9])
	f.Add(append(append([]byte(nil), whole...), "\n# reset\ndn: cn=z,o=xyz\nchangetype: add\ncn: z\n# commit {\"cookie\":\"c\"}\n"...))
	f.Add([]byte("# commit 1\n# commit"))
	f.Add([]byte("# journal 7\n\n# commit x\n"))
	f.Add([]byte("\n\n"))
	// An edge writer's journal: one op's batch, then batches that are a note alone.
	notes := "# journal 0\n\ndn: cn=a,o=xyz\nchangetype: add\ncn: a\n# commit op r1.0\n\n# commit commit r1.0 7\n\n# commit retire r1.0\n"
	f.Add([]byte(notes))
	f.Add([]byte(notes[:len(notes)-4]))
	f.Add([]byte("\n# commit a\n\n# reset\n# commit b\n\n# commit c\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		home := Dir{Path: t.TempDir()}
		jPath := filepath.Join(home.Path, journalName)
		if err := os.WriteFile(jPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		first, note, err := home.OpenSparse([]string{""})
		if err != nil {
			return // refusing damage is fine; panicking is not
		}
		again, note2, err := home.OpenSparse([]string{""})
		if err != nil {
			t.Fatalf("second open of the repaired journal: %v", err)
		}
		identical(t, first, again)
		if note2 != note {
			t.Fatalf("note %q became %q on the second open", note, note2)
		}
		j, err := home.Journal()
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		var walked []ldif.ChangeRecord
		walkedNote := ""
		if _, err := j.Batches(func(reset bool, records []ldif.ChangeRecord, n string) error {
			if reset {
				walked = nil
			}
			walked, walkedNote = append(walked, records...), n
			return nil
		}); err != nil {
			t.Fatalf("Batches over a journal that opened: %v", err)
		}
		_, records, rnote, err := j.recover()
		if err != nil || rnote != walkedNote || rnote != note || len(records) != len(walked) {
			t.Fatalf("recover ends with %d records under note %q (err %v), Batches with %d under %q, Open under %q",
				len(records), rnote, err, len(walked), walkedNote, note)
		}
		for i, rec := range records {
			if rec.Type != walked[i].Type || rec.DN.Norm() != walked[i].DN.Norm() {
				t.Fatalf("record %d: recover read %s %q, Batches %s %q", i, rec.Type, rec.DN, walked[i].Type, walked[i].DN)
			}
		}
		w := again.LastCSN()
		if err := again.Upsert(person(99, "appended")); err != nil {
			t.Fatal(err)
		}
		if _, err := home.AppendChanges(again, w); err != nil {
			t.Fatal(err)
		}
		third, note3, err := home.OpenSparse([]string{""})
		if err != nil {
			t.Fatalf("open after a further commit: %v", err)
		}
		identical(t, again, third)
		if want := csnNote(again.LastCSN()); note3 != want {
			t.Fatalf("note after the commit = %q, want %q", note3, want)
		}
	})
}
