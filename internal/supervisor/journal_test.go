package supervisor

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/ldif"
	"filterdir/internal/persist"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
	"filterdir/internal/resync/resynctest"
)

// offlineConfig is a supervisor that is never started: tests land exchanges
// on it by hand and read back what it made durable.
func offlineConfig(t *testing.T, stateDir string) Config {
	return Config{
		Master:   "upstream.invalid:389",
		Spec:     query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)"),
		StateDir: stateDir,
		Logf:     t.Logf,
	}
}

// held renders what a supervisor's replica holds and the position it would
// present: the (content, cookie, token) triple durability is about.
func held(t *testing.T, s *Supervisor) string {
	t.Helper()
	var b bytes.Buffer
	if err := ldif.Write(&b, s.rep.Store().MatchAll(s.cfg.Spec)...); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("cookie=%q token=%v\n%s", s.Cookie(), s.ResumeToken(), b.Bytes())
}

func image(action resync.Action, e *entry.Entry) resync.Update {
	return resync.Update{Action: action, DN: e.DN(), Entry: e}
}

func patchOf(d string, attr string, vals ...string) resync.Update {
	p := entry.New(dn.MustParse(d)).Put(attr, vals...)
	return resync.Update{Action: resync.ActionModify, DN: p.DN(), Entry: p, Patch: true}
}

// moveOf is the move from old to the patch's DN.
func moveOf(old string, patch resync.Update) resync.Update {
	patch.OldDN = dn.MustParse(old)
	return patch
}

// history is a chunked reload cut after chunk zero's successor, completed,
// and followed by four polls: every kind of exchange and of update a leaf
// lands — moves among them, one under a parent nobody holds, one without
// attributes — the last one after a second full reload.
func history() []*resync.PollResult {
	tok := proto.ResumeToken{Session: "sess-1", CSN: 10, Chunk: 1, Chunks: 2, Fingerprint: 0xfeed}
	return []*resync.PollResult{
		{FullReload: true, Resume: &tok, Updates: []resync.Update{
			image(resync.ActionAdd, personEntry(0)), image(resync.ActionAdd, personEntry(1)), image(resync.ActionAdd, personEntry(2))}},
		{Cookie: "sess-1@1", Updates: []resync.Update{
			image(resync.ActionAdd, personEntry(3)), image(resync.ActionAdd, personEntry(4))}},
		{Cookie: "sess-1@2", Updates: []resync.Update{
			patchOf("cn=p1,c=us,o=xyz", "sn", "patched"),
			{Action: resync.ActionDelete, DN: dn.MustParse("cn=p2,c=us,o=xyz")},
			image(resync.ActionModify, personEntry(3).Put("description", strings.Repeat("long ", 40))),
			image(resync.ActionAdd, personEntry(5))}},
		{Cookie: "sess-1@3"}, // the cookie alone moves
		{Cookie: "sess-1@4", Updates: []resync.Update{
			moveOf("cn=p4,c=us,o=xyz", patchOf("cn=p4b,ou=gone,c=us,o=xyz", "cn", "p4b")),
			moveOf("cn=p5,c=us,o=xyz", resync.Update{Action: resync.ActionModify, DN: dn.MustParse("cn=p5b,c=us,o=xyz"),
				Entry: entry.New(dn.MustParse("cn=p5b,c=us,o=xyz")), Patch: true})}},
		{Cookie: "sess-2@1", FullReload: true, Updates: []resync.Update{
			image(resync.ActionAdd, personEntry(6)), image(resync.ActionAdd, personEntry(1))}},
		{Cookie: "sess-2@2", Updates: []resync.Update{patchOf("cn=p6,c=us,o=xyz", "sn")}},
	}
}

// TestEveryByteTruncationRestoresPreviousCommit is the recovery contract of
// the journal, and what closes the two at-least-once gaps a leaf used to
// have (content one exchange ahead of its cookie, ROADMAP item 8): for every
// exchange of a history and every byte offset inside the batch it appended, a
// journal cut there restores exactly what was held and presented before the
// exchange — content, cookie and token together, never one without the
// others — and the restored supervisor lands a further exchange that in turn
// survives a restart.
func TestEveryByteTruncationRestoresPreviousCommit(t *testing.T) {
	stateDir := t.TempDir()
	s, err := newSupervisor(offlineConfig(t, stateDir))
	if err != nil {
		t.Fatal(err)
	}
	jPath := filepath.Join(stateDir, "journal.ldif")
	want, ends := []string{held(t, s)}, []int64{0}
	for i, res := range history() {
		if err := s.land(res); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		fi, err := os.Stat(jPath)
		if err != nil {
			t.Fatal(err)
		}
		want, ends = append(want, held(t, s)), append(ends, fi.Size())
	}
	raw, err := os.ReadFile(jPath)
	if err != nil {
		t.Fatal(err)
	}
	if s.counters.Checkpoints.Load() != 0 || s.counters.JournalAppends.Load() != int64(len(ends)-1) {
		t.Fatalf("history took %d snapshots and %d appends, want 0 and %d",
			s.counters.Checkpoints.Load(), s.counters.JournalAppends.Load(), len(ends)-1)
	}

	next := &resync.PollResult{Cookie: "sess-9@9", Updates: []resync.Update{image(resync.ActionAdd, personEntry(7))}}
	restoreCut := func(n int64) *Supervisor {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.ldif"), raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := newSupervisor(offlineConfig(t, dir))
		if err != nil {
			t.Fatalf("restore from a journal cut at byte %d of %d: %v", n, len(raw), err)
		}
		return s
	}
	for k := 1; k < len(ends); k++ {
		for n := ends[k-1]; n < ends[k]; n++ {
			s := restoreCut(n)
			if got := held(t, s); got != want[k-1] {
				t.Fatalf("journal cut at byte %d, inside exchange %d's batch [%d,%d): restored\n%s\nwant what exchange %d left:\n%s",
					n, k, ends[k-1], ends[k], got, k-1, want[k-1])
			}
			if n%7 != 0 && n != ends[k]-1 {
				continue // the further exchange on a sample of the cuts, and on the last byte
			}
			if err := s.land(next); err != nil {
				t.Fatalf("exchange after a cut at byte %d: %v", n, err)
			}
			after := held(t, s)
			again, err := newSupervisor(offlineConfig(t, s.cfg.StateDir))
			if err != nil {
				t.Fatal(err)
			}
			if got := held(t, again); got != after {
				t.Fatalf("cut at byte %d, one more exchange, restart: restored\n%s\nwant\n%s", n, got, after)
			}
		}
	}
	t.Logf("%d exchanges, %d B of journal: every cut restored the exchange before it", len(ends)-1, len(raw))
	if got := held(t, restoreCut(int64(len(raw)))); got != want[len(want)-1] {
		t.Fatalf("whole journal restored\n%s\nwant\n%s", got, want[len(want)-1])
	}
}

// TestOverlappingSpecsRestoreOwners: two supervisors with overlapping specs
// feed one replica, each journalling into its own state directory, through a
// history with a move only one of them makes and one both make. After a
// restart the replica holds the same content under the same owners: dropping
// either spec leaves exactly what it left before the restart.
func TestOverlappingSpecsRestoreOwners(t *testing.T) {
	h := newHarness(t)
	outside := personEntry(50).Put("serialNumber", "0550") // sn=x only
	if err := h.store.Add(outside); err != nil {
		t.Fatal(err)
	}
	specs := []query.Query{h.spec, query.MustNew("o=xyz", query.ScopeSubtree, "(sn=x)")}
	dirs := []string{t.TempDir(), t.TempDir()}
	build := func() (*replica.FilterReplica, []*Supervisor) {
		rep, err := replica.NewFilterReplica()
		if err != nil {
			t.Fatal(err)
		}
		sups := make([]*Supervisor, len(specs))
		for i, spec := range specs {
			cfg := h.config(t)
			cfg.Spec, cfg.StateDir = spec, dirs[i]
			if sups[i], err = New(cfg, rep); err != nil {
				t.Fatal(err)
			}
		}
		return rep, sups
	}
	everything := query.Query{Scope: query.ScopeSubtree}
	converged := func(rep *replica.FilterReplica) bool {
		for _, spec := range specs {
			if ok, _ := resynctest.Converged(h.store, rep.Store(), spec); !ok {
				return false
			}
		}
		return true
	}
	// ownership renders what the replica holds, then what is left once the
	// first spec is dropped, then once the second is: the owner sets, seen
	// from outside.
	ownership := func(rep *replica.FilterReplica) string {
		var b strings.Builder
		for i := 0; ; i++ {
			for _, e := range rep.Store().MatchAll(everything) {
				fmt.Fprintf(&b, "%s sn=%s\n", e.DN().String(), e.First("sn"))
			}
			if i == len(specs) {
				return b.String()
			}
			rep.RemoveStored(specs[i])
			fmt.Fprintf(&b, "-- without %s:\n", specs[i].FilterString())
		}
	}

	rep, sups := build()
	for _, sup := range sups {
		sup.Start()
	}
	for _, sup := range sups {
		waitSynced(t, sup)
	}
	mutate(t, h.store, 0) // p1 leaves (sn=x), p100 joins both
	for _, rn := range []struct{ from, to string }{
		{"cn=p50,c=us,o=xyz", "p50b"}, // (sn=x)'s alone
		{"cn=p3,c=us,o=xyz", "p3b"},   // both specs'
	} {
		if err := h.store.ModifyDN(dn.MustParse(rn.from), dn.RDN{Attr: "cn", Value: rn.to}, dn.MustParse("c=us,o=xyz")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for !converged(rep) {
		if time.Now().After(deadline) {
			t.Fatal("replica did not converge on both specs")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, sup := range sups {
		if err := sup.Stop(); err != nil {
			t.Fatal(err)
		}
	}
	for i, renames := range []int{1, 2} {
		raw, err := os.ReadFile(filepath.Join(dirs[i], "journal.ldif"))
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Count(raw, []byte("changetype: modrdn")); got != renames {
			t.Errorf("spec %d journaled %d renames, want %d: its moves", i, got, renames)
		}
	}
	want := ownership(rep)
	if !strings.Contains(want, "cn=p50b,") || !strings.Contains(want, "cn=p3b,") || !strings.Contains(want, "sn=r0") {
		t.Fatalf("scenario lost its single-owner entries:\n%s", want)
	}

	restored, sups2 := build()
	for i, sup := range sups2 {
		if sup.Cookie() != sups[i].Cookie() {
			t.Errorf("spec %d restored cookie %q, want %q", i, sup.Cookie(), sups[i].Cookie())
		}
	}
	if got := ownership(restored); got != want {
		t.Errorf("restored replica and its owners:\n%s\nwant:\n%s", got, want)
	}
}

// TestJournalWriteAmplification is the cost gate of a durable leaf: a
// ten-chunk reload followed by 200 exchanges of one patch each takes exactly
// one fsync per landed exchange and no snapshot, and what it writes — change
// records plus commit notes — is at most three times the change records
// alone, the LDIF it landed. (Before the journal every exchange rewrote the
// whole content and fsynced twice.)
func TestJournalWriteAmplification(t *testing.T) {
	h := newChunkedHarness(t, 1) // 8 entries, and two more below: 10 chunks
	for i := 8; i < 10; i++ {
		if err := h.store.Add(personEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := h.config(t)
	cfg.StateDir = t.TempDir()
	rep, err := replica.NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	sup, err := New(cfg, rep)
	if err != nil {
		t.Fatal(err)
	}
	fsyncs := 0
	sup.journal.Sync = func(f *os.File) error { fsyncs++; return f.Sync() }
	sup.Start()
	t.Cleanup(func() { _ = sup.Stop() })
	waitSynced(t, sup)
	const patches = 200
	d := dn.MustParse("cn=p4,c=us,o=xyz")
	for i := 0; i < patches; i++ {
		if err := h.store.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: "telephoneNumber", Values: []string{fmt.Sprintf("555-%04d", i)}}}); err != nil {
			t.Fatal(err)
		}
		waitCounter(t, "updates applied", 10*time.Second, sup.counters.UpdatesApplied.Load, int64(10+i+1))
	}
	if err := sup.Stop(); err != nil {
		t.Fatal(err)
	}

	c := sup.Counters().Snapshot()
	if c.ChunkResumes != 9 || c.Checkpoints != 0 {
		t.Fatalf("chunk-resumes=%d checkpoints=%d, want a 10-chunk reload and no snapshot", c.ChunkResumes, c.Checkpoints)
	}
	if want := int64(10 + patches); c.JournalAppends != want || int64(fsyncs) != want {
		t.Errorf("%d journal appends and %d fsyncs for %d landed exchanges, want one each", c.JournalAppends, fsyncs, want)
	}
	raw, err := os.ReadFile(filepath.Join(cfg.StateDir, "journal.ldif"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != c.JournalBytes {
		t.Errorf("journal file is %d B, journal-bytes counted %d", len(raw), c.JournalBytes)
	}
	landed := 0
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		if len(line) > 1 && !bytes.HasPrefix(line, []byte("# ")) {
			landed += len(line)
		}
	}
	t.Logf("wrote %d B for %d B of change records landed (%.2fx), %d fsyncs", len(raw), landed, float64(len(raw))/float64(landed), fsyncs)
	if len(raw) > 3*landed {
		t.Errorf("wrote %d B for %d B landed, more than 3x", len(raw), landed)
	}
	if _, err := os.Stat(filepath.Join(cfg.StateDir, "snapshot.ldif")); !os.IsNotExist(err) {
		t.Errorf("a snapshot was written (stat: %v)", err)
	}
}

// TestSnapshotWhenJournalOutgrowsRetention: under a retention policy the
// journal is folded into a snapshot of the content once over the bound, and
// the restart restores from snapshot plus the batches after it.
func TestSnapshotWhenJournalOutgrowsRetention(t *testing.T) {
	stateDir := t.TempDir()
	cfg := offlineConfig(t, stateDir)
	cfg.JournalRetention = persist.JournalRetention{MaxBytes: 600}
	s, err := newSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range history() {
		if err := s.land(res); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		if c := s.counters.Checkpoints.Load(); i == 0 && c != 0 {
			t.Fatalf("%d snapshots after the first exchange, want none yet", c)
		}
	}
	c := s.Counters().Snapshot()
	if c.Checkpoints == 0 || c.JournalAppends == 0 || c.Checkpoints+c.JournalAppends != int64(len(history())) {
		t.Errorf("checkpoints=%d appends=%d over %d exchanges, want some of each and one per exchange",
			c.Checkpoints, c.JournalAppends, len(history()))
	}
	again, err := newSupervisor(offlineConfig(t, stateDir))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := held(t, again), held(t, s); got != want {
		t.Errorf("restored from snapshot and journal:\n%s\nwant:\n%s", got, want)
	}
}

// TestFailedCommitHealedBySnapshot: an exchange whose commit fails is applied
// and its position adopted, so the journal has a gap after it; the batch is
// taken back off the file, and the next exchange writes a snapshot of the
// content instead of a batch that would not continue what is there.
func TestFailedCommitHealedBySnapshot(t *testing.T) {
	stateDir := t.TempDir()
	s, err := newSupervisor(offlineConfig(t, stateDir))
	if err != nil {
		t.Fatal(err)
	}
	h := history()
	for _, res := range h[:2] {
		if err := s.land(res); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.ReadFile(filepath.Join(stateDir, "journal.ldif"))
	if err != nil {
		t.Fatal(err)
	}
	s.journal.Sync = func(*os.File) error { return fmt.Errorf("disk on fire") }
	if err := s.land(h[2]); err == nil {
		t.Fatal("exchange landed although its commit failed")
	}
	if after, _ := os.ReadFile(filepath.Join(stateDir, "journal.ldif")); !bytes.Equal(after, before) {
		t.Errorf("failed batch left %d B behind in the journal", len(after)-len(before))
	}
	s.journal.Sync = (*os.File).Sync
	if err := s.land(h[3]); err != nil {
		t.Fatal(err)
	}
	if c := s.counters.Checkpoints.Load(); c != 1 {
		t.Errorf("%d snapshots after the exchange that followed the failed commit, want 1", c)
	}
	again, err := newSupervisor(offlineConfig(t, stateDir))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := held(t, again), held(t, s); got != want {
		t.Errorf("restored:\n%s\nwant:\n%s", got, want)
	}
}
