package ldapnet

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/resync"
)

// teeConn records everything the client reads off the wire.
type teeConn struct {
	net.Conn
	mu  sync.Mutex
	got *bytes.Buffer
}

func (c *teeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.got.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// teeDial returns a DialFunc whose connections append what they read to got.
func teeDial(got *bytes.Buffer) DialFunc {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := netDial(addr, timeout)
		if err != nil {
			return nil, err
		}
		return &teeConn{Conn: conn, got: got}, nil
	}
}

// reloadStore holds n person entries matched by reloadSpec.
func reloadStore(t testing.TB, n int) *dit.Store {
	t.Helper()
	st, err := dit.NewStore([]string{"o=xyz"}, dit.WithIndexes("serialnumber"))
	if err != nil {
		t.Fatal(err)
	}
	org := entry.New(dn.MustParse("o=xyz"))
	org.Put("objectclass", "organization").Put("o", "xyz")
	if err := st.Add(org); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		e := entry.New(dn.MustParse(fmt.Sprintf("cn=p%03d,o=xyz", i)))
		e.Put("objectclass", "person", "inetOrgPerson").
			Put("cn", fmt.Sprintf("p%03d", i)).Put("sn", "x").
			Put("serialNumber", fmt.Sprintf("04%03d", i)).
			Put("description", string(bytes.Repeat([]byte{'d'}, 40+i)))
		if err := st.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

var reloadSpec = query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)")

// reloadWire runs `sessions` full reloads one after the other against a
// fresh server over store and returns the bytes the last of them read —
// the session that, on a grouping engine, is served entirely from the
// shared snapshot and its encoding memo. With cutAfter > 0 the connection
// is dropped after that many chunks and the transfer resumed by token on a
// new one.
func reloadWire(t *testing.T, store *dit.Store, sessions, cutAfter int, opts ...resync.EngineOption) ([]byte, *StoreBackend) {
	t.Helper()
	backend := NewStoreBackend(store, opts...)
	srv, err := Serve("127.0.0.1:0", backend)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var last []byte
	for s := 0; s < sessions; s++ {
		var got bytes.Buffer
		dial := func() *Client {
			c, err := DialWith(teeDial(&got), srv.Addr(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		c := dial()
		res, err := c.Sync(reloadSpec, proto.ReSyncModePoll, "")
		if err != nil {
			t.Fatal(err)
		}
		entries := len(res.Updates)
		for chunk := 1; res.Resume != nil; chunk++ {
			if chunk == cutAfter {
				_ = c.conn.Close() // no unbind: the cut is abrupt
				c = dial()
			}
			if res, err = c.SyncResume(*res.Resume); err != nil {
				t.Fatal(err)
			}
			if res.FullReload {
				t.Fatalf("session %d: token refused, transfer restarted from chunk zero", s)
			}
			entries += len(res.Updates)
		}
		if res.Cookie == "" || entries != store.Len()-1 {
			t.Fatalf("session %d: %d entries, cookie %q", s, entries, res.Cookie)
		}
		_ = c.conn.Close()
		last = got.Bytes()
	}
	return last, backend
}

// TestSharedReloadWireEquivalence extends the shared-encoding equivalence
// of the proto layer (TestSharedEncodingEquivalence) to whole transfers: a
// full reload served from a content group's shared snapshot and encoding
// memo is byte for byte the reload a per-session engine would have sent —
// monolithic, chunked, and cut and resumed by token. Both servers hand out
// the same session numbers, so cookies and tokens are comparable too.
func TestSharedReloadWireEquivalence(t *testing.T) {
	const sessions = 3
	for _, tc := range []struct {
		name     string
		chunk    int
		cutAfter int
	}{
		{"monolithic", 0, 0},
		{"chunked", 7, 0},
		{"cut-and-resumed", 7, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := reloadStore(t, 40)
			shared, sb := reloadWire(t, store, sessions, tc.cutAfter, resync.WithChunkSize(tc.chunk))
			solo, pb := reloadWire(t, store, sessions, tc.cutAfter, resync.WithChunkSize(tc.chunk), resync.WithoutGrouping())
			if !bytes.Equal(shared, solo) {
				t.Errorf("shared reload differs from the per-session one: %d vs %d bytes", len(shared), len(solo))
			}
			s, p := sb.SyncCounters().Snapshot(), pb.SyncCounters().Snapshot()
			if s.ReloadSnapshotsBuilt != 1 || s.ReloadSnapshotsShared != sessions-1 {
				t.Errorf("shared engine: snapshots built/shared = %d/%d, want 1/%d", s.ReloadSnapshotsBuilt, s.ReloadSnapshotsShared, sessions-1)
			}
			if s.StreamDedupPDUs == 0 {
				t.Error("shared engine: no reload PDU was served from the encoding memo")
			}
			if p.ReloadSnapshotsBuilt != sessions || p.ReloadSnapshotsShared != 0 || p.StreamDedupPDUs != 0 {
				t.Errorf("per-session engine shared something: built/shared/dedup = %d/%d/%d",
					p.ReloadSnapshotsBuilt, p.ReloadSnapshotsShared, p.StreamDedupPDUs)
			}
			if s.ResumeRejects+p.ResumeRejects != 0 {
				t.Errorf("resume tokens refused: shared %d, per-session %d", s.ResumeRejects, p.ResumeRejects)
			}
		})
	}
}

// discardConn is a connection whose writes vanish.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }
func (discardConn) Close() error                     { return nil }

// TestSharedEncodeHitAllocs is the allocation gate of the supplier's hit
// path: streaming a reload whose PDUs are already in the shared memo costs
// one allocation per PDU — the envelope carrying the session's message ID
// around the shared tail. No op, no control, no copy of the entry.
func TestSharedEncodeHitAllocs(t *testing.T) {
	store := reloadStore(t, 200)
	backend := NewStoreBackend(store)
	res, err := backend.Engine.Begin(reloadSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Enc == nil {
		t.Fatal("Begin result carries no shared encoding memo")
	}
	conn := discardConn{}
	s := &Server{backend: backend, syncStats: backend.SyncCounters(), conns: map[net.Conn]bool{}}
	state := &connState{w: newConnWriter(conn, s.syncStats)}
	defer state.w.close()
	stream := func() {
		if err := s.streamUpdates(state, conn, 5, res.Updates, "", res.CSN, res.Enc, false); err != nil {
			t.Fatal(err)
		}
	}
	stream() // the first member pays for the encoding
	total, pdus := testing.AllocsPerRun(20, stream), float64(len(res.Updates))
	t.Logf("shared-encode hit path: %.0f allocations for %.0f PDUs", total, pdus)
	if total > pdus+2 { // per PDU the envelope; per call a couple for the loop itself
		t.Errorf("hit path allocates %.2f times per PDU, gate is 1 (the envelope)", total/pdus)
	}
}
