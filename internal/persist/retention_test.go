package persist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
)

// modifyN commits n modifies of one entry, each replacing its sn with value,
// so the journal has material to accumulate.
func modifyN(t *testing.T, st *dit.Store, n int, value string) {
	t.Helper()
	d := dn.MustParse("cn=p0,o=xyz")
	for i := 0; i < n; i++ {
		if err := st.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{value}}}); err != nil {
			t.Fatal(err)
		}
	}
}

func journalSize(t *testing.T, d Dir) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(d.Path, journalName))
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// generation reads the generation of d's snapshot (0 without one).
func generation(t *testing.T, d Dir) uint64 {
	t.Helper()
	j, err := d.Journal()
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	return j.gen
}

// TestMaintainRetention drives a durable store's journal maintenance over
// the one fold rule and checks two things per case: whether its commits
// folded the journal into a fresh snapshot when (and only when) it outgrew
// both the floor and the snapshot it extends, and that durable state always
// reopens identical to the live store. Each write is a quarter of the floor.
func TestMaintainRetention(t *testing.T) {
	tests := []struct {
		name string
		// snapshotPad is the size of one value added to the seed before its
		// checkpoint, to make the snapshot outweigh the floor.
		snapshotPad int
		writes      int
		wantGen     uint64
	}{
		{name: "journal under the floor", writes: 3, wantGen: 1},
		{name: "journal outgrows the floor", writes: 5, wantGen: 2},
		{name: "journal under a larger snapshot", snapshotPad: 2 * journalFloor, writes: 6, wantGen: 1},
		{name: "journal outgrows a larger snapshot", snapshotPad: 2 * journalFloor, writes: 9, wantGen: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := Dir{Path: t.TempDir()}
			seed := seedStore(t)
			if tt.snapshotPad > 0 {
				pad := dit.Mod{Op: dit.ModAdd, Attr: "description", Values: []string{strings.Repeat("p", tt.snapshotPad)}}
				if err := seed.Modify(dn.MustParse("cn=p1,o=xyz"), []dit.Mod{pad}); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Checkpoint(seed); err != nil {
				t.Fatal(err)
			}
			st, _ := openDurable(t, d)
			modifyN(t, st, tt.writes, strings.Repeat("q", journalFloor/4))
			if gen := generation(t, d); gen != tt.wantGen {
				t.Errorf("snapshot generation %d after %d writes, want %d", gen, tt.writes, tt.wantGen)
			}
			reopened, _ := openDurable(t, d)
			identical(t, st, reopened)
			if reopened.LastCSN() != st.LastCSN() {
				t.Errorf("reopened at CSN %d, want %d", reopened.LastCSN(), st.LastCSN())
			}
		})
	}
}

// TestMaintainWatermarkMonotone: folding moves history from the journal into
// the snapshot without disturbing the CSN sequence — the watermark every
// commit and snapshot note records — so the store's last CSN only grows and
// a reopen continues from it. Each write is a quarter of the journal floor,
// so the rounds outgrow it, and fold the journal, more than once.
func TestMaintainWatermarkMonotone(t *testing.T) {
	d := Dir{Path: t.TempDir()}
	if err := d.Checkpoint(seedStore(t)); err != nil {
		t.Fatal(err)
	}
	st, closeJournal := openDurable(t, d)
	wm := st.LastCSN()
	for round := 0; round < 4; round++ {
		modifyN(t, st, 3, strings.Repeat(string(rune('a'+round)), journalFloor/4))
		if w := st.LastCSN(); w != wm+3 {
			t.Fatalf("round %d: watermark %d -> %d, want +3", round, wm, w)
		}
		wm = st.LastCSN()
	}
	if err := closeJournal(); err != nil {
		t.Fatal(err)
	}
	if gen := generation(t, d); gen < 3 {
		t.Errorf("snapshot generation %d after the writes, want the seed's 1 and at least two folds", gen)
	}
	reopened, _ := openDurable(t, d)
	identical(t, st, reopened)
	if reopened.LastCSN() != wm {
		t.Errorf("reopened at CSN %d, want %d", reopened.LastCSN(), wm)
	}
}
