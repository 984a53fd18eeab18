package supervisor

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"filterdir/internal/chaos"
	"filterdir/internal/ldapnet"
	"filterdir/internal/persist"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
)

// newChunkedHarness is newHarness with the master's engine serving full
// transfers in resumable chunks of the given size.
func newChunkedHarness(t *testing.T, chunkSize int) *harness {
	t.Helper()
	st := newMasterStore(t)
	backend := ldapnet.NewStoreBackend(st, resync.WithChunkSize(chunkSize))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(chaos.Plan{})
	srv := ldapnet.ServeListener(inj.Listener(ln), backend)
	t.Cleanup(func() { _ = srv.Close() })
	return &harness{
		store:   st,
		backend: backend,
		srv:     srv,
		inj:     inj,
		spec:    query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)"),
	}
}

// TestChunkedBeginAppliesAllChunks: against a chunking master, the first
// Begin walks the whole token chain on one connection and lands content
// identical to a monolithic reload.
func TestChunkedBeginAppliesAllChunks(t *testing.T) {
	h := newChunkedHarness(t, 3) // 8 entries → chunks of 3,3,2
	sup := startSupervisor(t, h.config(t))
	waitSynced(t, sup)
	waitConverged(t, h, sup, 10*time.Second)

	c := sup.Counters().Snapshot()
	if c.Begins != 1 || c.ChunkResumes != 2 || c.FullReloads != 1 {
		t.Errorf("begins=%d chunk-resumes=%d full-reloads=%d, want 1/2/1",
			c.Begins, c.ChunkResumes, c.FullReloads)
	}
	eng := h.backend.Engine.Counters().Snapshot()
	if eng.ChunkedReloads != 1 || eng.ReloadChunks != 3 || eng.ResumeRejects != 0 {
		t.Errorf("engine chunked=%d chunks=%d rejects=%d, want 1/3/0",
			eng.ChunkedReloads, eng.ReloadChunks, eng.ResumeRejects)
	}
	if sup.Cookie() == "" {
		t.Error("completed transfer left no session cookie")
	}
	if !sup.ResumeToken().IsZero() {
		t.Errorf("completed transfer left resume token %v armed", sup.ResumeToken())
	}
	// The session is live: a mutation must arrive by incremental poll, not
	// another reload.
	mutate(t, h.store, 0)
	waitConverged(t, h, sup, 10*time.Second)
	if eng := h.backend.Engine.Counters().Snapshot(); eng.ChunkedReloads != 1 || eng.FullReloads != 0 {
		t.Errorf("post-transfer poll reloaded (chunked=%d full=%d), want incremental",
			eng.ChunkedReloads, eng.FullReloads)
	}
}

// TestRestartMidTransferResumes is the satellite-4 regression: a replica
// killed mid-chunked-reload has committed its resume token, and the next
// incarnation presents the token and receives only the remaining chunks —
// it never re-Begins and the master never restarts the transfer.
func TestRestartMidTransferResumes(t *testing.T) {
	h := newChunkedHarness(t, 3)
	stateDir := t.TempDir()
	cfg := h.config(t)
	cfg.StateDir = stateDir

	// After the first chunk lands, sever every subsequent wire op so the
	// transfer cannot advance past chunk zero in this incarnation.
	var once atomic.Bool
	cfg.OnApplied = func(int) {
		if once.CompareAndSwap(false, true) {
			h.inj.SetPlan(chaos.Plan{DropEveryNOps: 1})
		}
	}
	sup := startSupervisor(t, cfg)
	deadline := time.Now().Add(10 * time.Second)
	for sup.ResumeToken().IsZero() {
		if time.Now().After(deadline) {
			t.Fatal("supervisor never armed a resume token")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := sup.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}

	// Token never newer than content: the last commit's note names chunk 1 of
	// 3 and no cookie, and what is committed up to it is exactly the
	// chunk-zero entries the token claims were absorbed.
	content, note, err := persist.Dir{Path: stateDir}.OpenSparse([]string{""})
	if err != nil {
		t.Fatal(err)
	}
	var pos position
	if err := json.Unmarshal([]byte(note), &pos); err != nil {
		t.Fatalf("commit note %q: %v", note, err)
	}
	tok, err := proto.ParseResumeTokenString(pos.Token)
	if err != nil {
		t.Fatalf("committed token %q: %v", pos.Token, err)
	}
	if tok.Chunk != 1 || tok.Chunks != 3 {
		t.Errorf("token at chunk %d/%d, want 1/3", tok.Chunk, tok.Chunks)
	}
	if pos.Cookie != "" {
		t.Errorf("mid-transfer commit carries completion cookie %q", pos.Cookie)
	}
	if content.Len() != 3 {
		t.Errorf("durable content is %d entries, want the 3 of chunk zero", content.Len())
	}

	// Fresh incarnation on the same state directory: it must resume the
	// transfer, not re-Begin.
	h.inj.SetPlan(chaos.Plan{})
	sup2 := startSupervisor(t, cfg)
	waitSynced(t, sup2)
	waitConverged(t, h, sup2, 10*time.Second)

	c := sup2.Counters().Snapshot()
	if c.Begins != 0 {
		t.Errorf("restarted supervisor re-Began %d times, want 0 (token resume)", c.Begins)
	}
	if c.Resumes < 1 || c.ChunkResumes < 1 {
		t.Errorf("resumes=%d chunk-resumes=%d, want >= 1 each", c.Resumes, c.ChunkResumes)
	}
	eng := h.backend.Engine.Counters().Snapshot()
	if eng.Begins != 1 {
		t.Errorf("master begins = %d, want exactly 1 across both incarnations", eng.Begins)
	}
	if eng.ChunkedReloads != 1 || eng.ResumeRejects != 0 {
		t.Errorf("engine chunked=%d rejects=%d, want the one transfer resumed (1/0)",
			eng.ChunkedReloads, eng.ResumeRejects)
	}
	if !sup2.ResumeToken().IsZero() {
		t.Error("completed resume left token armed")
	}
}

// TestChunkedReloadSurvivesDrops: with connection drops armed for the whole
// run, a chunked initial transfer still converges byte-identically.
func TestChunkedReloadSurvivesDrops(t *testing.T) {
	h := newChunkedHarness(t, 2) // 8 entries → 4 chunks
	h.inj.SetPlan(chaos.Plan{Seed: 11, DropEveryNOps: 25})
	sup := startSupervisor(t, h.config(t))
	waitSynced(t, sup)
	h.inj.SetPlan(chaos.Plan{})
	waitConverged(t, h, sup, 15*time.Second)
	if eng := h.backend.Engine.Counters().Snapshot(); eng.ChunkedReloads < 1 {
		t.Errorf("engine served %d chunked reloads, want >= 1", eng.ChunkedReloads)
	}
	if drops := h.inj.Stats().Drops; drops == 0 {
		t.Skip("chaos plan injected no drops; nothing exercised")
	}
}

// TestStaleSessionKeepsServingContent is the other satellite-4 fix: when
// the master forgets the session, the replica keeps serving its
// last-known-good content for the whole re-Begin window instead of
// emptying itself the moment staleness is detected.
func TestStaleSessionKeepsServingContent(t *testing.T) {
	h := newHarness(t)
	sup := startSupervisor(t, h.config(t))
	waitSynced(t, sup)

	// Refuse new connections first, then kill the session: the live
	// connection's next poll learns the session is stale, and the refused
	// window guarantees the re-Begin cannot complete immediately.
	h.inj.RefuseFor(200 * time.Millisecond)
	if err := h.backend.Engine.End(sup.Cookie()); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, "stale sessions", 10*time.Second,
		func() int64 { return sup.Counters().StaleSessions.Load() }, 1)
	if n := len(sup.rep.Store().MatchAll(h.spec)); n != 8 {
		t.Errorf("replica serves %d entries during re-Begin window, want the 8 last known good", n)
	}
	if sup.Cookie() != "" {
		t.Error("stale session left cookie armed")
	}

	waitCounter(t, "begins", 10*time.Second,
		func() int64 { return sup.Counters().Begins.Load() }, 2)
	mutate(t, h.store, 0)
	waitConverged(t, h, sup, 10*time.Second)
}

// TestTornResumeTokenRestore: a commit whose resume token no longer parses
// (a format bump, damage) restores only what the cookie proves — and with
// no cookie either, nothing.
func TestTornResumeTokenRestore(t *testing.T) {
	h := newHarness(t)
	stateDir := t.TempDir()
	cfg := h.config(t)
	cfg.StateDir = stateDir
	sup := startSupervisor(t, cfg)
	waitSynced(t, sup)
	if err := sup.Stop(); err != nil {
		t.Fatal(err)
	}

	// rewrite replaces the note on the journal's last commit line.
	jPath := filepath.Join(stateDir, "journal.ldif")
	raw, err := os.ReadFile(jPath)
	if err != nil {
		t.Fatal(err)
	}
	const marker = "\n# commit "
	at := bytes.LastIndex(raw, []byte(marker)) + len(marker)
	var state map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(raw[at:]), &state); err != nil {
		t.Fatalf("last commit note %q: %v", raw[at:], err)
	}
	rewrite := func(mutate func(map[string]any)) {
		t.Helper()
		s := make(map[string]any, len(state))
		for k, v := range state {
			s[k] = v
		}
		mutate(s)
		note, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		out := append(append(append([]byte(nil), raw[:at]...), note...), '\n')
		if err := os.WriteFile(jPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	restore := func() *Supervisor {
		t.Helper()
		sup, err := newSupervisor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sup
	}

	// Garbage token alongside a live cookie: cookie-only restore.
	rewrite(func(s map[string]any) { s["token"] = "rt1:torn" })
	s2 := restore()
	if s2.Cookie() == "" {
		t.Error("torn token discarded the valid cookie too")
	}
	if !s2.ResumeToken().IsZero() {
		t.Errorf("torn token restored as %v", s2.ResumeToken())
	}

	// Garbage token and no cookie: the checkpoint proves nothing — fresh
	// start.
	rewrite(func(s map[string]any) {
		s["token"] = "not-a-token"
		s["cookie"] = ""
	})
	s3 := restore()
	if s3.Cookie() != "" || !s3.ResumeToken().IsZero() {
		t.Errorf("unprovable checkpoint restored cookie=%q tok=%v, want fresh start",
			s3.Cookie(), s3.ResumeToken())
	}
	if s3.rep.EntryCount() != 0 {
		t.Errorf("unprovable checkpoint restored %d entries", s3.rep.EntryCount())
	}
}

// newSupervisor constructs (without starting) a supervisor with a fresh
// replica, for restore-path inspection.
func newSupervisor(cfg Config) (*Supervisor, error) {
	rep, err := replica.NewFilterReplica()
	if err != nil {
		return nil, err
	}
	return New(cfg, rep)
}
