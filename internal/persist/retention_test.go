package persist

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
)

func TestParseJournalRetention(t *testing.T) {
	tests := []struct {
		in      string
		want    JournalRetention
		wantErr bool
	}{
		{in: "", want: JournalRetention{}},
		{in: "bytes=100", want: JournalRetention{MaxBytes: 100}},
		{in: "bytes=64k", want: JournalRetention{MaxBytes: 64 << 10}},
		{in: "bytes=2M", want: JournalRetention{MaxBytes: 2 << 20}},
		{in: "bytes=1g", want: JournalRetention{MaxBytes: 1 << 30}},
		{in: "age=90s", want: JournalRetention{MaxAge: 90 * time.Second}},
		{in: "bytes=64m,age=1h", want: JournalRetention{MaxBytes: 64 << 20, MaxAge: time.Hour}},
		{in: " bytes=1k , age=5m ", want: JournalRetention{MaxBytes: 1 << 10, MaxAge: 5 * time.Minute}},
		{in: "banana", wantErr: true},
		{in: "bytes=-1", wantErr: true},
		{in: "bytes=1x", wantErr: true},
		{in: "age=-5s", wantErr: true},
		{in: "age=fast", wantErr: true},
		{in: "records=7", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			got, err := ParseJournalRetention(tt.in)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("parsed %q as %+v, want error", tt.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("parse %q: %v", tt.in, err)
			}
			if got != tt.want {
				t.Errorf("parse %q = %+v, want %+v", tt.in, got, tt.want)
			}
			// String renders back into parseable flag syntax.
			back, err := ParseJournalRetention(got.String())
			if err != nil || back != got {
				t.Errorf("round-trip via %q = %+v (%v), want %+v", got.String(), back, err, got)
			}
		})
	}
}

// modifyN commits n changes so the journal has material to accumulate.
func modifyN(t *testing.T, st *dit.Store, n int) {
	t.Helper()
	d := dn.MustParse("cn=p0,o=xyz")
	for i := 0; i < n; i++ {
		if err := st.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{"y"}}}); err != nil {
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

// TestMaintainRetention drives a durable store's journal maintenance under
// the policy table and checks two things per case: whether its commits folded
// the journal into a fresh snapshot when (and only when) the policy demands
// it, and that durable state always reopens identical to the live store.
func TestMaintainRetention(t *testing.T) {
	tests := []struct {
		name string
		pol  JournalRetention
		// ageSnapshot backdates the snapshot file before the writes, to
		// trip (or not) the age bound.
		ageSnapshot time.Duration
		wantFolded  bool
	}{
		{name: "no policy, journal under the floor", pol: JournalRetention{}, wantFolded: false},
		{name: "size bound under threshold", pol: JournalRetention{MaxBytes: 1 << 20}, wantFolded: false},
		{name: "size bound exceeded", pol: JournalRetention{MaxBytes: 16}, wantFolded: true},
		{name: "age bound, snapshot fresh", pol: JournalRetention{MaxAge: time.Hour}, wantFolded: false},
		{name: "age bound exceeded", pol: JournalRetention{MaxAge: time.Minute}, ageSnapshot: time.Hour, wantFolded: true},
		{name: "either bound suffices", pol: JournalRetention{MaxBytes: 1 << 20, MaxAge: time.Minute}, ageSnapshot: time.Hour, wantFolded: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := Dir{Path: t.TempDir()}
			if err := d.Checkpoint(seedStore(t)); err != nil {
				t.Fatal(err)
			}
			if tt.ageSnapshot > 0 {
				old := time.Now().Add(-tt.ageSnapshot)
				if err := os.Chtimes(filepath.Join(d.Path, snapshotName), old, old); err != nil {
					t.Fatal(err)
				}
			}
			st, _ := openDurable(t, d, tt.pol)
			modifyN(t, st, 6)
			if folded := generation(t, d) > 1; folded != tt.wantFolded {
				t.Errorf("journal folded = %v (snapshot generation %d), want %v", folded, generation(t, d), tt.wantFolded)
			}
			reopened, _ := openDurable(t, d, tt.pol)
			identical(t, st, reopened)
			if reopened.LastCSN() != st.LastCSN() {
				t.Errorf("reopened at CSN %d, want %d", reopened.LastCSN(), st.LastCSN())
			}
		})
	}
}

// TestMaintainAgeWithoutSnapshot: a journal that predates any snapshot
// counts as over-age the moment an age bound is armed, so the first commit
// of a fresh directory folds it.
func TestMaintainAgeWithoutSnapshot(t *testing.T) {
	d := Dir{Path: t.TempDir()}
	st, _ := openDurable(t, d, JournalRetention{MaxAge: time.Hour})
	fill(t, st)
	if gen := generation(t, d); gen != 1 {
		t.Errorf("snapshot generation %d after the writes, want 1: folded at the first commit only", gen)
	}
	reopened, _ := openDurable(t, d, JournalRetention{})
	identical(t, st, reopened)
}

// TestMaintainWatermarkMonotone: folding moves history from the journal into
// the snapshot without disturbing the CSN sequence — the watermark every
// commit and snapshot note records — so the store's last CSN only grows and
// a reopen continues from it.
func TestMaintainWatermarkMonotone(t *testing.T) {
	d := Dir{Path: t.TempDir()}
	if err := d.Checkpoint(seedStore(t)); err != nil {
		t.Fatal(err)
	}
	pol := JournalRetention{MaxBytes: 1}
	st, closeJournal := openDurable(t, d, pol)
	wm := st.LastCSN()
	for round := 0; round < 4; round++ {
		modifyN(t, st, 3)
		if w := st.LastCSN(); w != wm+3 {
			t.Fatalf("round %d: watermark %d -> %d, want +3", round, wm, w)
		}
		wm = st.LastCSN()
	}
	if err := closeJournal(); err != nil {
		t.Fatal(err)
	}
	if journalSize(t, d) != 0 {
		t.Error("journal not folded at the last commit under a 1-byte bound")
	}
	reopened, _ := openDurable(t, d, pol)
	identical(t, st, reopened)
	if reopened.LastCSN() != wm {
		t.Errorf("reopened at CSN %d, want %d", reopened.LastCSN(), wm)
	}
}
