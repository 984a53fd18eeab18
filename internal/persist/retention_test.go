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

// TestMaintainRetention drives Dir.Maintain under the policy table and
// checks two things per case: whether the journal was folded into a fresh
// snapshot when (and only when) the policy demands it, and that durable
// state always reopens identical to the live store.
func TestMaintainRetention(t *testing.T) {
	tests := []struct {
		name string
		pol  JournalRetention
		// ageSnapshot backdates the snapshot file before Maintain, to
		// trip (or not) the age bound.
		ageSnapshot time.Duration
		wantFolded  bool
	}{
		{name: "disabled policy never folds", pol: JournalRetention{}, wantFolded: false},
		{name: "size bound under threshold", pol: JournalRetention{MaxBytes: 1 << 20}, wantFolded: false},
		{name: "size bound exceeded", pol: JournalRetention{MaxBytes: 16}, wantFolded: true},
		{name: "age bound, snapshot fresh", pol: JournalRetention{MaxAge: time.Hour}, wantFolded: false},
		{name: "age bound exceeded", pol: JournalRetention{MaxAge: time.Minute}, ageSnapshot: time.Hour, wantFolded: true},
		{name: "either bound suffices", pol: JournalRetention{MaxBytes: 1 << 20, MaxAge: time.Minute}, ageSnapshot: time.Hour, wantFolded: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := Dir{Path: t.TempDir()}
			st := seedStore(t)
			if err := d.Checkpoint(st); err != nil {
				t.Fatal(err)
			}
			if tt.ageSnapshot > 0 {
				old := time.Now().Add(-tt.ageSnapshot)
				if err := os.Chtimes(filepath.Join(d.Path, snapshotName), old, old); err != nil {
					t.Fatal(err)
				}
			}
			wm := st.LastCSN()
			modifyN(t, st, 6)
			wm2, err := d.Maintain(st, wm, tt.pol)
			if err != nil {
				t.Fatal(err)
			}
			if wm2 != st.LastCSN() {
				t.Errorf("watermark = %d, want %d", wm2, st.LastCSN())
			}
			folded := journalSize(t, d) == 0
			if folded != tt.wantFolded {
				t.Errorf("journal folded = %v (size %d), want %v", folded, journalSize(t, d), tt.wantFolded)
			}
			reopened, _, err := d.Open([]string{"o=xyz"})
			if err != nil {
				t.Fatal(err)
			}
			identical(t, st, reopened)
		})
	}
}

// TestMaintainAgeWithoutSnapshot: a journal that predates any snapshot
// counts as over-age the moment an age bound is armed.
func TestMaintainAgeWithoutSnapshot(t *testing.T) {
	d := Dir{Path: t.TempDir()}
	st := seedStore(t)
	// Journal changes without ever checkpointing a snapshot.
	wm, err := d.AppendChanges(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	modifyN(t, st, 2)
	if _, err := d.Maintain(st, wm, JournalRetention{MaxAge: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if journalSize(t, d) != 0 {
		t.Error("snapshot-less journal not folded under an age bound")
	}
	if _, err := os.Stat(filepath.Join(d.Path, snapshotName)); err != nil {
		t.Errorf("no snapshot written: %v", err)
	}
	reopened, _, err := d.Open([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	identical(t, st, reopened)
}

// TestMaintainWatermarkMonotone: retention folding moves history from the
// journal into the snapshot without disturbing the append watermark, so a
// caller can keep handing back the returned value.
func TestMaintainWatermarkMonotone(t *testing.T) {
	d := Dir{Path: t.TempDir()}
	st := seedStore(t)
	pol := JournalRetention{MaxBytes: 1}
	wm := dit.CSN(0)
	for round := 0; round < 4; round++ {
		modifyN(t, st, 3)
		w, err := d.Maintain(st, wm, pol)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if w < wm {
			t.Fatalf("round %d: watermark regressed %d -> %d", round, wm, w)
		}
		wm = w
	}
	reopened, _, err := d.Open([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	identical(t, st, reopened)
}
