package cascade

import (
	"bytes"
	"errors"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"filterdir/internal/dn"
	"filterdir/internal/query"
	"filterdir/internal/resync"
	"filterdir/internal/resync/resynctest"
	"filterdir/internal/supervisor"
)

// killedCopy returns a copy of a running tier's state directory: what a kill
// at this instant would leave behind, no Stop having run.
func killedCopy(t *testing.T, stateDir string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(stateDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(stateDir, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestKilledTierWithOverlappingLinksRestores: a tier holding a base spec and
// an adopted spec that overlaps it — and that alone has moved an entry — is
// killed, and the adopted link's journal is left cut in the middle of its
// last batch. The restart repairs that
// journal, restores each link at the last exchange it committed and converges
// by resuming both sessions, never a Begin. Retiring the adopted spec then
// leaves the base spec's content whole: every entry the two specs share came
// back owned by both links.
func TestKilledTierWithOverlappingLinksRestores(t *testing.T) {
	h := newHarness(t)
	cfg := h.tierConfig(t)
	cfg.StateDir = t.TempDir()
	// A poll would acknowledge the cookie of the batch about to be cut, and
	// the master drop the sync points before it; a crash in the middle of the
	// append comes before that poll, as a streamed batch does.
	cfg.Mode = supervisor.ModePersist
	tier, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tier.Start()
	t.Cleanup(func() { _ = tier.Stop() })
	waitSynced(t, tier.Supervisors()[0])

	// Every person starts with sn=x: the adopted spec holds the 04 region the
	// base spec holds too, and the 05 region beside it.
	overlap := query.MustNew("o=xyz", query.ScopeSubtree, "(sn=x)")
	sup, err := tier.AdoptSpec(overlap)
	if err != nil {
		t.Fatalf("AdoptSpec: %v", err)
	}
	waitSynced(t, sup)
	waitCounter(t, "filter generation", 10*time.Second, func() int64 {
		gen, _ := tier.FilterGeneration()
		return int64(gen)
	}, 1)
	mutate(t, h.store, 0) // 04-p1 leaves (sn=x), 04-p100 joins both specs
	// A move only the adopted link makes: its journal has a rename the base
	// link's has not.
	if err := h.store.ModifyDN(dn.MustParse("cn=05-p1,c=us,o=xyz"), dn.RDN{Attr: "cn", Value: "05-p1 renamed"}, dn.MustParse("c=us,o=xyz")); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, h.store, tier.Replica().Store(), h.tierSpec, 10*time.Second)
	waitConverged(t, h.store, tier.Replica().Store(), overlap, 10*time.Second)
	for spec, renames := range map[*query.Query]int{&h.tierSpec: 0, &overlap: 1} {
		raw, err := os.ReadFile(filepath.Join(tier.linkDir(spec.Normalize()), "journal.ldif"))
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Count(raw, []byte("changetype: modrdn")); got != renames {
			t.Errorf("link %s journaled %d renames, want %d", spec.FilterString(), got, renames)
		}
	}
	// The batch to lose is one only the adopted link lands; it is on disk
	// once counted.
	appends := sup.Counters().JournalAppends.Load()
	if err := h.store.Add(personEntry("05", 50)); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, "adopted link's journal appends", 10*time.Second, sup.Counters().JournalAppends.Load, appends+1)

	cfg.StateDir = killedCopy(t, cfg.StateDir)
	if err := tier.Stop(); err != nil {
		t.Fatal(err)
	}
	tearLastRecord(t, filepath.Join(cfg.StateDir, linksName, filepath.Base(tier.linkDir(overlap.Normalize())), "journal.ldif"))

	tier2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := len(tier2.Specs()); got != 2 {
		t.Fatalf("restarted tier specs = %d, want 2 (adopted spec lost)", got)
	}
	if ok, why := resynctest.Converged(h.store, tier2.Replica().Store(), h.tierSpec); !ok {
		t.Errorf("base spec's content as restored: %s", why)
	}
	if ok, _ := resynctest.Converged(h.store, tier2.Replica().Store(), overlap); ok {
		t.Fatal("the tear lost nothing: the scenario did not roll a batch back")
	}
	tier2.Start()
	t.Cleanup(func() { _ = tier2.Stop() })
	waitConverged(t, h.store, tier2.Replica().Store(), overlap, 15*time.Second)
	waitConverged(t, h.store, tier2.Replica().Store(), h.tierSpec, 15*time.Second)
	if eng := h.backend.Engine.Counters().Snapshot(); eng.Begins != 2 || eng.FullReloads != 0 {
		t.Errorf("master begins/full reloads = %d/%d, want 2/0 (one Begin per link, before the kill)", eng.Begins, eng.FullReloads)
	}

	if _, err := tier2.RetireSpec(overlap); err != nil {
		t.Fatalf("RetireSpec: %v", err)
	}
	if got := countPrefix(tier2.Replica().Store(), "05"); got != 0 {
		t.Errorf("retired content still stored: %d 05-entries", got)
	}
	if ok, why := resynctest.Converged(h.store, tier2.Replica().Store(), h.tierSpec); !ok {
		t.Errorf("retiring the adopted spec took base content with it: %s", why)
	}
	if _, err := os.Stat(tier2.linkDir(overlap.Normalize())); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("retired link's directory still there (stat: %v)", err)
	}
}

// cutConn fails its n-th write and closes the connection.
type cutConn struct {
	net.Conn
	left int // used by one ldapnet.Client, which serializes its writes
}

func (c *cutConn) Write(b []byte) (int, error) {
	if c.left--; c.left == 0 {
		_ = c.Conn.Close()
		return 0, errors.New("connection cut at chunk boundary")
	}
	return c.Conn.Write(b)
}

// TestTierKilledMidReloadResumesByToken: a tier killed between two chunks of
// its own chunked reload has committed chunk zero under its successor's resume
// token. The next incarnation presents the token and receives the remaining
// chunks: the master sees one Begin and one transfer, and rejects nothing.
func TestTierKilledMidReloadResumesByToken(t *testing.T) {
	h := newHarness(t, resync.WithChunkSize(3)) // 8 entries → chunks of 3, 3, 2
	cfg := h.tierConfig(t)
	cfg.StateDir = t.TempDir()
	// The second request on the first connection is the SyncResume for chunk
	// 1: fail it, and let no later dial through in this incarnation.
	var dials atomic.Int32
	cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		if dials.Add(1) > 1 {
			return nil, errors.New("upstream unreachable")
		}
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return &cutConn{Conn: conn, left: 2}, nil
	}
	tier, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tier.Start()
	t.Cleanup(func() { _ = tier.Stop() })
	waitCounter(t, "journal appends (chunk zero committed)", 10*time.Second,
		tier.Supervisors()[0].Counters().JournalAppends.Load, 1)

	cfg.StateDir = killedCopy(t, cfg.StateDir)
	if err := tier.Stop(); err != nil {
		t.Fatal(err)
	}
	cfg.Dial = nil
	tier2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	sup := tier2.Supervisors()[0]
	if tok := sup.ResumeToken(); tok.Chunk != 1 || tok.Chunks != 3 || tier2.Replica().EntryCount() != 3 {
		t.Fatalf("restored token at chunk %d/%d over %d entries, want 1/3 over the 3 of chunk zero",
			tok.Chunk, tok.Chunks, tier2.Replica().EntryCount())
	}
	tier2.Start()
	t.Cleanup(func() { _ = tier2.Stop() })
	waitSynced(t, sup)
	waitConverged(t, h.store, tier2.Replica().Store(), h.tierSpec, 10*time.Second)

	if c := sup.Counters().Snapshot(); c.Begins != 0 || c.ChunkResumes < 1 {
		t.Errorf("restarted link: begins=%d chunk-resumes=%d, want 0 and >= 1", c.Begins, c.ChunkResumes)
	}
	eng := h.backend.Engine.Counters().Snapshot()
	if eng.Begins != 1 || eng.ChunkedReloads != 1 || eng.ResumeRejects != 0 {
		t.Errorf("master begins=%d chunked=%d rejects=%d, want the one transfer resumed (1/1/0)",
			eng.Begins, eng.ChunkedReloads, eng.ResumeRejects)
	}
}
