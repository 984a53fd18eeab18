package edgewrite

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
)

// fakeMaster is an in-memory sequencer with the master's dedup-by-op-id
// contract: the first forward of an id is applied and assigned the next
// CSN, replays are answered from the dedup table. Applies counts real
// applications — the exactly-once assertion reads it.
type fakeMaster struct {
	mu      sync.Mutex
	next    uint64
	seen    map[string]uint64
	applies int
	fail    error    // when set, Forward fails without applying
	offered []string // every id handed to Forward, applied or not
}

func newFakeMaster() *fakeMaster { return &fakeMaster{seen: make(map[string]uint64)} }

func (m *fakeMaster) Forward(c dit.Change, opID string) (uint64, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.offered = append(m.offered, opID)
	if m.fail != nil {
		return 0, false, m.fail
	}
	if csn, ok := m.seen[opID]; ok {
		return csn, true, nil
	}
	m.next++
	m.seen[opID] = m.next
	m.applies++
	return m.next, false, nil
}

func (m *fakeMaster) setFail(err error) {
	m.mu.Lock()
	m.fail = err
	m.mu.Unlock()
}

func (m *fakeMaster) applied() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applies
}

func personAdd(dnStr, sn string) dit.Change {
	d := dn.MustParse(dnStr)
	e := entry.New(d).Put("objectclass", "person").Put("cn", d.String()).Put("sn", sn)
	return dit.Change{Type: dit.ChangeAdd, DN: d, After: e}
}

func subtreeQuery(t *testing.T, filter string) query.Query {
	t.Helper()
	q, err := query.New("", query.ScopeSubtree, filter)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func openTestWriter(t *testing.T, dir string, fwd Forwarder) *Writer {
	t.Helper()
	w, err := Open(Config{Dir: dir, ReplicaID: "r1", Forward: fwd, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSubmitCommitRetire walks one op through the full lifecycle: submit →
// forward → commit → visible on the overlay → CSN echo → retired, with the
// WAL compacted once nothing is pending.
func TestSubmitCommitRetire(t *testing.T) {
	dir := t.TempDir()
	m := newFakeMaster()
	w := openTestWriter(t, dir, m)

	csn, err := w.Submit(personAdd("cn=new,o=xyz", "new"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if csn != 1 {
		t.Fatalf("csn = %d, want 1", csn)
	}

	// Read-your-writes: the pending add joins a matching query's answer.
	q := subtreeQuery(t, "(sn=new)")
	got := w.Overlay(q, nil)
	if len(got) != 1 || got[0].DN().Norm() != dn.MustParse("cn=new,o=xyz").Norm() {
		t.Fatalf("overlay before echo = %v, want the pending add", got)
	}

	// The CSN echoes back down the sync stream: the op retires and the
	// overlay empties.
	w.SetWatermark(csn)
	if n := w.Pending(); n != 0 {
		t.Fatalf("pending after echo = %d, want 0", n)
	}
	if got := w.Overlay(q, nil); len(got) != 0 {
		t.Fatalf("overlay after echo = %v, want empty", got)
	}

	// Everything retired → the journal is folded once it is worth folding, by
	// the rule a leaf folds by (over 1 MiB). Fsyncs are skipped to get there
	// quickly.
	w.wal.j.Sync = func(*os.File) error { return nil }
	big := personAdd("cn=big,o=xyz", strings.Repeat("x", 100<<10))
	jPath := filepath.Join(dir, "journal.ldif")
	ops := 1
	for ; fileSize(t, jPath) > 0; ops++ {
		if ops > 50 {
			t.Fatalf("journal of %d B never folded", fileSize(t, jPath))
		}
		csn, err := w.Submit(big)
		if err != nil {
			t.Fatal(err)
		}
		w.SetWatermark(csn)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "snapshot.ldif"))
	if want := fmt.Sprintf("# snapshot 2 r1 %d\n", ops); err != nil || string(snap) != want {
		t.Fatalf("snapshot after the fold = %q (err %v), want %q", snap, err, want)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestWatermarkBoundsRetirement pins retirement to the one watermark the
// writer's owner sets: a committed op stays on the overlay while the
// watermark is below its CSN, also after the watermark regresses, and
// retires once it reaches the CSN.
func TestWatermarkBoundsRetirement(t *testing.T) {
	m := newFakeMaster()
	w := openTestWriter(t, t.TempDir(), m)

	csn, err := w.Submit(personAdd("cn=a,o=xyz", "a"))
	if err != nil {
		t.Fatal(err)
	}
	w.SetWatermark(csn - 1)
	if n := w.Pending(); n != 1 {
		t.Fatalf("pending with the watermark short of the op = %d, want 1", n)
	}
	// A regressed watermark (a lagging link not yet reported) must not
	// retire anything either.
	w.SetWatermark(0)
	if n := w.Pending(); n != 1 {
		t.Fatalf("pending after regression = %d, want 1", n)
	}
	w.SetWatermark(csn)
	if n := w.Pending(); n != 0 {
		t.Fatalf("pending with the watermark at the op = %d, want 0", n)
	}
}

// TestForwardFailureReplaysExactlyOnce is the crash between journal append
// and forward: the submit returns ErrPending, the reopened writer re-arms
// the op, and the replay reaches the master exactly once.
func TestForwardFailureReplaysExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	m := newFakeMaster()
	m.setFail(errors.New("upstream unreachable"))

	w := openTestWriter(t, dir, m)
	_, err := w.Submit(personAdd("cn=b,o=xyz", "b"))
	if !errors.Is(err, ErrPending) {
		t.Fatalf("Submit with dead upstream = %v, want ErrPending", err)
	}
	if n := w.PendingUncommitted(); n != 1 {
		t.Fatalf("uncommitted = %d, want 1", n)
	}
	w.Close() // crash before the forward ever succeeded

	m.setFail(nil)
	w2 := openTestWriter(t, dir, m)
	if n := w2.PendingUncommitted(); n != 1 {
		t.Fatalf("recovered uncommitted = %d, want 1", n)
	}
	w2.Replay()
	w2.Replay() // a second replay must hit the dedup table, not re-apply
	if got := m.applied(); got != 1 {
		t.Fatalf("master applied %d times, want exactly 1", got)
	}
	if n := w2.PendingUncommitted(); n != 0 {
		t.Fatalf("uncommitted after replay = %d, want 0", n)
	}
}

// TestCrashBetweenCommitAndRetire reopens a WAL holding a committed but
// unretired op: the overlay must re-arm (the CSN has not echoed back yet)
// and the watermark echo must retire it — without a second forward.
func TestCrashBetweenCommitAndRetire(t *testing.T) {
	dir := t.TempDir()
	m := newFakeMaster()
	w := openTestWriter(t, dir, m)
	csn, err := w.Submit(personAdd("cn=c,o=xyz", "c"))
	if err != nil {
		t.Fatal(err)
	}
	w.Close() // crash after the commit ack, before the CSN echoed back

	w2 := openTestWriter(t, dir, m)
	if n, u := w2.Pending(), w2.PendingUncommitted(); n != 1 || u != 0 {
		t.Fatalf("recovered pending=%d uncommitted=%d, want 1/0", n, u)
	}
	q := subtreeQuery(t, "(sn=c)")
	if got := w2.Overlay(q, nil); len(got) != 1 {
		t.Fatalf("overlay not re-armed after recovery: %v", got)
	}
	w2.Replay() // must be a no-op for committed ops
	if got := m.applied(); got != 1 {
		t.Fatalf("master applied %d times, want exactly 1", got)
	}
	w2.SetWatermark(csn)
	if n := w2.Pending(); n != 0 {
		t.Fatalf("pending after echo = %d, want 0", n)
	}
}

// TestTornTailRecovery mirrors TestTornCheckpointRecovery for the edge WAL:
// a crash mid-append leaves a partial final batch — of an op whose append
// never returned, so that no submitter was answered and nothing forwarded —
// and recovery cuts exactly that batch off the file. Its id may come back;
// the id of an op that was forwarded may not.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	m := newFakeMaster()
	m.setFail(errors.New("down")) // keep everything uncommitted
	w := openTestWriter(t, dir, m)
	for i := 0; i < 3; i++ {
		_, err := w.Submit(personAdd(fmt.Sprintf("cn=t%d,o=xyz", i), "t"))
		if !errors.Is(err, ErrPending) {
			t.Fatal(err)
		}
	}
	w.Close()

	// Tear the tail: most of a fourth op's batch, as a crash inside
	// Journal.Commit would leave it.
	path := filepath.Join(dir, "journal.ldif")
	whole := fileSize(t, path)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\ndn: cn=t3,o=xyz\nchangetype: add\nobjectclass: person\nsn: t\n# commit op r"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m.setFail(nil)
	w2 := openTestWriter(t, dir, m)
	if n := w2.Pending(); n != 3 {
		t.Fatalf("recovered %d ops, want 3 (torn fourth dropped)", n)
	}
	if got := fileSize(t, path); got != whole {
		t.Fatalf("journal is %d B after recovery, want the %d B before the torn batch", got, whole)
	}
	w2.Replay()
	if got := m.applied(); got != 3 {
		t.Fatalf("master applied %d, want 3", got)
	}

	// A forwarded op's id must not be minted again: the master would answer
	// the new write from its dedup table instead of applying it.
	_, err = w2.Submit(personAdd("cn=t9,o=xyz", "t"))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.applied(); got != 4 {
		t.Fatalf("master applied %d, want 4: the new write reused one of %v", got, m.offered)
	}
}

// TestPermanentErrorAborts pins the doomed-op escape hatch: a forward the
// sequencer definitively refused is aborted — off the overlay, retired in
// the WAL — and the verdict surfaces to the submitter unwrapped.
func TestPermanentErrorAborts(t *testing.T) {
	dir := t.TempDir()
	m := newFakeMaster()
	verdict := errors.New("entry already exists")
	m.setFail(&PermanentError{Err: verdict})
	w := openTestWriter(t, dir, m)

	_, err := w.Submit(personAdd("cn=dup,o=xyz", "dup"))
	if !errors.Is(err, verdict) {
		t.Fatalf("Submit = %v, want the sequencer's verdict", err)
	}
	if errors.Is(err, ErrPending) {
		t.Fatal("a permanent refusal must not report ErrPending")
	}
	if n := w.Pending(); n != 0 {
		t.Fatalf("aborted op still pending: %d", n)
	}
	w.Close()
	// The abort was durable: a reopened writer replays nothing.
	w2 := openTestWriter(t, dir, m)
	if n := w2.Pending(); n != 0 {
		t.Fatalf("aborted op resurrected on reopen: %d pending", n)
	}
}

// TestAdmitterGates checks the containment gate: adds must land inside a
// spec, targeted ops must hit locally held entries.
func TestAdmitterGates(t *testing.T) {
	held := entry.New(dn.MustParse("cn=held,o=xyz")).Put("objectclass", "person").Put("sn", "held")
	lookup := func(d dn.DN) (*entry.Entry, bool) {
		if d.Norm() == held.DN().Norm() {
			return held, true
		}
		return nil, false
	}
	admit := Admitter([]query.Query{subtreeQuery(t, "(sn=held)")}, lookup)

	if err := admit(dit.Change{Type: dit.ChangeDelete, DN: held.DN()}); err != nil {
		t.Fatalf("delete of held entry rejected: %v", err)
	}
	if err := admit(dit.Change{Type: dit.ChangeDelete, DN: dn.MustParse("cn=alien,o=xyz")}); err == nil {
		t.Fatal("delete of unheld entry admitted")
	}
	if err := admit(personAdd("cn=in,o=xyz", "held")); err != nil {
		t.Fatalf("covered add rejected: %v", err)
	}
	if err := admit(personAdd("cn=out,o=xyz", "other")); err == nil {
		t.Fatal("uncovered add admitted")
	}
}

// TestOverlayProjection checks the three pending-image effects on an
// answer: tombstones remove, matching images replace, and a pending rename
// that carries an entry out of the query's reach removes it.
func TestOverlayProjection(t *testing.T) {
	m := newFakeMaster()
	store := map[string]*entry.Entry{}
	base := entry.New(dn.MustParse("cn=m,o=xyz")).Put("objectclass", "person").Put("sn", "m").Put("mail", "old@x")
	store[base.DN().Norm()] = base
	lookup := func(d dn.DN) (*entry.Entry, bool) {
		e, ok := store[d.Norm()]
		return e, ok
	}
	w, err := Open(Config{Dir: t.TempDir(), ReplicaID: "r1", Forward: m, Lookup: lookup})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := w.Submit(dit.Change{Type: dit.ChangeModify, DN: base.DN(),
		Mods: []dit.Mod{{Op: dit.ModReplace, Attr: "mail", Values: []string{"new@x"}}}}); err != nil {
		t.Fatal(err)
	}
	q := subtreeQuery(t, "(sn=m)")
	got := w.Overlay(q, []*entry.Entry{base})
	if len(got) != 1 || got[0].First("mail") != "new@x" {
		t.Fatalf("modify overlay = %v, want the pending image with mail=new@x", got)
	}

	// A pending rename to a name outside the query's filter removes the
	// synced entry from the answer (the image itself no longer matches).
	if _, err := w.Submit(dit.Change{Type: dit.ChangeModifyDN, DN: base.DN(),
		NewDN: dn.MustParse("cn=renamed,o=xyz")}); err != nil {
		t.Fatal(err)
	}
	got = w.Overlay(subtreeQuery(t, "(cn=m)"), []*entry.Entry{base})
	if len(got) != 0 {
		t.Fatalf("rename overlay = %v, want the old name gone", got)
	}
}

// BenchmarkEdgeWrite measures the accepted-write fast path: admit, WAL
// append+fsync, overlay projection, in-memory forward, retirement. A fold's
// own two fsyncs do not pass through the seam that counts; a fold comes once
// per MiB of journal, some 6,700 of these writes.
func BenchmarkEdgeWrite(b *testing.B) {
	m := newFakeMaster()
	w, err := Open(Config{Dir: b.TempDir(), ReplicaID: "r1", Forward: m})
	if err != nil {
		b.Fatal(err)
	}
	fsyncs := 0
	w.wal.j.Sync = func(f *os.File) error {
		fsyncs++
		return f.Sync()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csn, err := w.Submit(personAdd(fmt.Sprintf("cn=b%d,o=xyz", i), "b"))
		if err != nil {
			b.Fatal(err)
		}
		w.SetWatermark(csn) // immediate echo: steady-state retirement
	}
	b.ReportMetric(float64(fsyncs)/float64(b.N), "fsyncs/op")
}
