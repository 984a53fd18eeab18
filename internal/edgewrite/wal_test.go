package edgewrite

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"filterdir/internal/dit"
)

// pendingState renders a writer's pending set, in order: each op's id and
// either the CSN the master assigned or "pending".
func pendingState(w *Writer) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var parts []string
	for _, p := range w.pending {
		if p.committed {
			parts = append(parts, fmt.Sprintf("%s:%d", p.id, p.csn))
		} else {
			parts = append(parts, p.id+":pending")
		}
	}
	return strings.Join(parts, " ")
}

// generation is the WAL directory between two folds: the snapshot, the journal
// as its last batch left it, and the offset at which every batch ends.
type generation struct {
	snapshot, journal []byte
	ends              []int
}

// walHistory drives a writer through every transition — accept, commit,
// retire, a forward that fails and is replayed, a permanent refusal, and one
// write large enough that its retirement folds the journal — and returns the
// directory as each batch left it, with the pending set each batch must
// restore (want[g][k] after batch k of generation g; batch 0 is none).
func walHistory(t *testing.T) (gens []generation, want [][]string) {
	t.Helper()
	dir := t.TempDir()
	m := newFakeMaster()
	w := openTestWriter(t, dir, m)
	defer w.Close()
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// Every batch passes through the Sync seam once, written and not yet
	// acknowledged: the journal is then exactly what the batch leaves.
	w.wal.j.Sync = func(*os.File) error {
		snap, j := read("snapshot.ldif"), read("journal.ldif")
		if len(gens) == 0 || string(gens[len(gens)-1].snapshot) != string(snap) {
			gens = append(gens, generation{snapshot: snap, ends: []int{0}})
		}
		g := &gens[len(gens)-1]
		g.journal, g.ends = j, append(g.ends, len(j))
		return nil
	}
	submit := func(c dit.Change) uint64 {
		t.Helper()
		csn, err := w.Submit(c)
		if err != nil {
			t.Fatal(err)
		}
		return csn
	}

	submit(personAdd("cn=a,o=xyz", "a")) // op r1.0, commit r1.0 1
	m.setFail(errors.New("down"))
	if _, err := w.Submit(personAdd("cn=b,o=xyz", "b")); !errors.Is(err, ErrPending) { // op r1.1
		t.Fatal(err)
	}
	w.SetWatermark(1) // retire r1.0
	m.setFail(nil)
	w.Replay() // commit r1.1 2
	m.setFail(&PermanentError{Err: errors.New("refused")})
	if _, err := w.Submit(personAdd("cn=c,o=xyz", "c")); err == nil { // op r1.2, retire r1.2
		t.Fatal("a refused write was accepted")
	}
	m.setFail(nil)
	submit(dit.Change{Type: dit.ChangeDelete, DN: personAdd("cn=d,o=xyz", "d").DN}) // op r1.3, commit r1.3 3
	w.SetWatermark(3)                                                               // retire r1.1, retire r1.3
	// Past the size under which a journal is not worth folding, in values short
	// enough to parse quickly: retiring this write folds the journal.
	big := personAdd("cn=e,o=xyz", "e")
	for i := 0; i < 1100; i++ {
		big.After.Add("description", fmt.Sprintf("%04d%s", i, strings.Repeat("x", 1000)))
	}
	w.SetWatermark(submit(big))                          // op r1.4, commit r1.4 4, retire r1.4
	w.SetWatermark(submit(personAdd("cn=f,o=xyz", "f"))) // op r1.5, commit r1.5 5, retire r1.5

	want = [][]string{{
		"",
		"r1.0:pending", "r1.0:1",
		"r1.0:1 r1.1:pending",
		"r1.1:pending",
		"r1.1:2",
		"r1.1:2 r1.2:pending", "r1.1:2",
		"r1.1:2 r1.3:pending", "r1.1:2 r1.3:3",
		"r1.3:3", "",
		"r1.4:pending", "r1.4:4", "",
	}, {
		"",
		"r1.5:pending", "r1.5:5", "",
	}}
	if len(gens) != len(want) {
		t.Fatalf("history spans %d generations, want %d", len(gens), len(want))
	}
	for g := range gens {
		if len(gens[g].ends) != len(want[g]) {
			t.Fatalf("generation %d holds %d batches, want %d", g, len(gens[g].ends)-1, len(want[g])-1)
		}
	}
	return gens, want
}

// reopenAt opens a writer on a fresh directory holding snapshot and journal,
// under a master that has already seen the ids in offered.
func reopenAt(t *testing.T, snapshot, journal []byte, offered map[string]bool) (*Writer, *fakeMaster) {
	t.Helper()
	dir := t.TempDir()
	for name, b := range map[string][]byte{"snapshot.ldif": snapshot, "journal.ldif": journal} {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m := newFakeMaster()
	for id := range offered {
		m.seen[id] = 99
	}
	w, err := Open(Config{Dir: dir, ReplicaID: "r1", Forward: m})
	if err != nil {
		t.Fatalf("open on a journal of %d B: %v", len(journal), err)
	}
	return w, m
}

// TestEveryByteTruncationRestoresLastBatch is the recovery contract of the
// edge WAL, in the manner of the supervisor's
// TestEveryByteTruncationRestoresPreviousCommit: for every batch of a history
// and every byte offset inside it, a journal cut there restores exactly the
// pending set — ids, committed flags, CSNs — that the batch before it left,
// and no id the master was ever offered is minted again, across cuts,
// restarts and a fold. (Inside the one batch that is over a megabyte, only
// the cuts near either end and one in every 100,003 bytes are taken.)
func TestEveryByteTruncationRestoresLastBatch(t *testing.T) {
	gens, want := walHistory(t)
	offered := map[string]bool{} // ids forwarded before the batch being cut
	cuts := 0
	for g, gen := range gens {
		for k := 1; k < len(gen.ends); k++ {
			start, end := gen.ends[k-1], gen.ends[k]
			for n := start; n < end; n++ {
				if n-start > 64 && end-n > 64 && n%100003 != 0 {
					continue
				}
				cuts++
				w, m := reopenAt(t, gen.snapshot, gen.journal[:n], offered)
				if got := pendingState(w); got != want[g][k-1] {
					t.Fatalf("generation %d cut at byte %d, inside batch %d [%d,%d): restored %q, want what batch %d left: %q",
						g, n, k, start, end, got, k-1, want[g][k-1])
				}
				if n%5 != 0 && n != end-1 {
					w.Close()
					continue // a further write on a sample of the cuts, and on the last byte
				}
				if _, err := w.Submit(personAdd("cn=z,o=xyz", "z")); err != nil {
					t.Fatalf("write after a cut at byte %d: %v", n, err)
				}
				if m.applied() != 1 {
					t.Fatalf("generation %d cut at byte %d: the write after it was given an id the master had seen (%v offered before the cut, then %v)",
						g, n, offered, m.offered)
				}
				after := pendingState(w)
				w.Close()
				again := openTestWriter(t, w.cfg.Dir, m)
				if got := pendingState(again); got != after {
					t.Fatalf("generation %d cut at byte %d, one more write, restart: restored %q, want %q", g, n, got, after)
				}
				again.Close()
			}
			// A batch that is whole was acknowledged: an op's id has now been offered.
			for _, op := range strings.Fields(want[g][k]) {
				offered[op[:strings.IndexByte(op, ':')]] = true
			}
		}
		w, _ := reopenAt(t, gen.snapshot, gen.journal, offered)
		if got, last := pendingState(w), want[g][len(want[g])-1]; got != last {
			t.Fatalf("generation %d whole: restored %q, want %q", g, got, last)
		}
		w.Close()
	}
	t.Logf("%d generations, %d cuts: each restored the batch before it", len(gens), cuts)
}

// TestFoldCrashBeforeJournalTruncate: a crash between the fold's snapshot
// rename and its journal truncation leaves the new snapshot beside the journal
// it replaces. Every op in that journal had retired: none comes back, and the
// snapshot's note still keeps the next id past all of theirs.
func TestFoldCrashBeforeJournalTruncate(t *testing.T) {
	gens, _ := walHistory(t)
	offered := map[string]bool{"r1.0": true, "r1.1": true, "r1.2": true, "r1.3": true, "r1.4": true}
	w, m := reopenAt(t, gens[1].snapshot, gens[0].journal, offered)
	if got := pendingState(w); got != "" {
		t.Fatalf("restored %q from a journal its snapshot replaces, want nothing", got)
	}
	if _, err := w.Submit(personAdd("cn=z,o=xyz", "z")); err != nil {
		t.Fatal(err)
	}
	if got := pendingState(w); got != "r1.5:1" || m.applied() != 1 {
		t.Fatalf("the write after the crash is %q, applied %d times: want r1.5, applied afresh", got, m.applied())
	}
	w.Close()
	if again := openTestWriter(t, w.cfg.Dir, m); pendingState(again) != "r1.5:1" {
		t.Fatalf("restart restored %q, want r1.5:1", pendingState(again))
	}
}

// TestFailedAppendLeavesNothing: an accept whose fsync fails is answered with
// the error and leaves nothing in the journal. It used to leave its block
// under an id the next write was given too: the refused write came back on
// every restart, its replay was answered with the other write's CSN, and the
// WAL never compacted again.
func TestFailedAppendLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	m := newFakeMaster()
	w := openTestWriter(t, dir, m)
	syncs := 0
	w.wal.j.Sync = func(f *os.File) error {
		if syncs++; syncs == 1 {
			return errors.New("disk says no")
		}
		return f.Sync()
	}
	if _, err := w.Submit(personAdd("cn=lost,o=xyz", "lost")); err == nil || errors.Is(err, ErrPending) {
		t.Fatalf("Submit over a failing fsync = %v, want the failure and no promise to replay", err)
	}
	if n := w.Pending(); n != 0 || len(m.offered) != 0 {
		t.Fatalf("a write that was not journaled is pending (%d) or was forwarded (%v)", n, m.offered)
	}
	csn, err := w.Submit(personAdd("cn=kept,o=xyz", "kept"))
	if err != nil {
		t.Fatal(err)
	}
	kept := pendingState(w)
	w.Close()
	for restart := 1; restart <= 2; restart++ {
		w = openTestWriter(t, dir, m)
		if got := pendingState(w); got != kept {
			t.Fatalf("restart %d restored %q, want only the write that was accepted: %q", restart, got, kept)
		}
		if got := w.Overlay(subtreeQuery(t, "(sn=lost)"), nil); len(got) != 0 {
			t.Fatalf("restart %d: the refused write is back on the overlay: %v", restart, got)
		}
		w.Replay()
		if got := m.applied(); got != 1 {
			t.Fatalf("restart %d: master applied %d writes, want 1", restart, got)
		}
		w.Close()
	}
	w = openTestWriter(t, dir, m)
	defer w.Close()
	w.SetWatermark(csn)
	if n := len(w.wal.ops); w.Pending() != 0 || n != 0 {
		t.Fatalf("after the echo %d pending, %d ops in the WAL's table: want none, or it never folds", w.Pending(), n)
	}
}

// TestOpenRefusesPreviousFormat: a directory written by the build with a WAL
// format of its own is refused by name, unread and untouched.
func TestOpenRefusesPreviousFormat(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "ops.wal")
	block := []byte("opid: r1.0\ndn: cn=a,o=xyz\nchangetype: delete\n\n")
	if err := os.WriteFile(old, block, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Config{Dir: dir, Forward: newFakeMaster()})
	if err == nil || !strings.Contains(err.Error(), old) {
		t.Fatalf("Open beside an ops.wal = %v, want an error naming %s", err, old)
	}
	names, err := os.ReadDir(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("directory after the refusal holds %v (err %v), want ops.wal alone", names, err)
	}
	if b, err := os.ReadFile(old); err != nil || string(b) != string(block) {
		t.Fatalf("ops.wal after the refusal = %q (err %v), want it as it was", b, err)
	}
}
