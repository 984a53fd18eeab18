package ldapnet

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"filterdir/internal/ber"
	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/metrics"
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

// encStripped serves a StoreBackend's exchanges with PollResult.Enc
// cleared, so the server BER-encodes every PDU for the session it streams
// to — the memo-less streamUpdates path, which is the per-session reference
// for what a shared encoding memo must reproduce.
type encStripped struct{ *StoreBackend }

func (b encStripped) ReSyncBegin(q query.Query) (*resync.PollResult, error) {
	return withoutEnc(b.StoreBackend.ReSyncBegin(q))
}

func (b encStripped) ReSyncPoll(cookie string) (*resync.PollResult, error) {
	return withoutEnc(b.StoreBackend.ReSyncPoll(cookie))
}

func (b encStripped) ReSyncResume(tok proto.ResumeToken) (*resync.PollResult, error) {
	return withoutEnc(b.StoreBackend.ReSyncResume(tok))
}

func withoutEnc(res *resync.PollResult, err error) (*resync.PollResult, error) {
	if res == nil {
		return nil, err
	}
	out := *res
	out.Enc = nil
	return &out, err
}

// reloadWire runs `sessions` full reloads one after the other against a
// fresh server over store and returns the bytes the last of them read —
// the session that is served entirely from its group's shared snapshot and,
// unless stripEnc serves the exchanges through encStripped, its encoding
// memo. With cutAfter > 0 the connection is dropped after that many chunks
// and the transfer resumed by token on a new one. With persist set each
// session is a persist-mode Begin instead, read up to its first batch, which
// ends at the PDU that carries its cookie: only the bytes up to that PDU are
// returned, since the stream's closing SearchDone may or may not reach the
// reader before the connection closes.
func reloadWire(t *testing.T, store *dit.Store, sessions, chunk, cutAfter int, persist, stripEnc bool) ([]byte, *StoreBackend) {
	t.Helper()
	backend := NewStoreBackend(store, resync.WithChunkSize(chunk))
	var served Backend = backend
	if stripEnc {
		served = encStripped{backend}
	}
	srv, err := Serve("127.0.0.1:0", served)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var last []byte
	for s := 0; s < sessions; s++ {
		var got bytes.Buffer
		if persist {
			c, err := DialWith(teeDial(&got), srv.Addr(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := c.Persist(reloadSpec, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			b := <-ps.Batches
			ps.Close()
			if b == nil || b.Cookie == "" || len(b.Updates) != store.Len()-1 {
				t.Fatalf("session %d: first batch %+v", s, b)
			}
			last = untagged(firstMessages(t, got.Bytes(), len(b.Updates)), b.Cookie)
			continue
		}
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
		last = untagged(got.Bytes(), res.Cookie)
	}
	return last, backend
}

// firstMessages is the prefix of wire that holds its first n messages.
func firstMessages(t *testing.T, wire []byte, n int) []byte {
	t.Helper()
	rd, end := ber.NewReader(wire), 0
	for i := 0; i < n; i++ {
		msg, err := rd.ReadExpect(ber.ClassUniversal, ber.TagSequence)
		if err != nil {
			t.Fatal(err)
		}
		end += ber.TLVLen(len(msg))
	}
	return wire[:end]
}

// untagged is a captured exchange with the engine's incarnation tag, the
// random first five bytes of the session id the cookie names, replaced by
// one placeholder, so two engines' captures compare byte for byte.
func untagged(wire []byte, cookie string) []byte {
	id, _, _ := resync.SplitCookie(cookie)
	return bytes.ReplaceAll(wire, []byte(id), []byte("#####"+id[5:]))
}

// labelledEntries reads the messages of a captured transfer and counts its
// entry PDUs and those of them that carry a control.
func labelledEntries(t *testing.T, wire []byte) (entries, labelled int) {
	t.Helper()
	msgs, err := splitMessages(wire)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if _, ok := m.Op.(*proto.SearchEntry); ok {
			entries++
			if len(m.Controls) > 0 {
				labelled++
			}
		}
	}
	return entries, labelled
}

// TestSharedReloadWireEquivalence extends the shared-encoding equivalence
// of the proto layer (TestSharedEncodingEquivalence) to whole transfers: a
// full reload served from a content group's shared snapshot and encoding
// memo is byte for byte the reload the server sends when it encodes every
// PDU for the one session (the same exchanges with PollResult.Enc cleared) —
// monolithic, chunked, cut and resumed by token, and a persist-mode Begin.
// Both servers hand out the same session numbers, so cookies and tokens are
// comparable too. Every entry PDU of a transfer is bare but the last of a
// persist-mode Begin, whose entry-change control carries the cookie.
func TestSharedReloadWireEquivalence(t *testing.T) {
	const sessions = 3
	for _, tc := range []struct {
		name     string
		chunk    int
		cutAfter int
		persist  bool
	}{
		{"monolithic", 0, 0, false},
		{"chunked", 7, 0, false},
		{"cut-and-resumed", 7, 2, false},
		{"persist-begin", 0, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := reloadStore(t, 40)
			shared, sb := reloadWire(t, store, sessions, tc.chunk, tc.cutAfter, tc.persist, false)
			solo, pb := reloadWire(t, store, sessions, tc.chunk, tc.cutAfter, tc.persist, true)
			if !bytes.Equal(shared, solo) {
				t.Errorf("shared reload differs from the per-session encoding: %d vs %d bytes", len(shared), len(solo))
			}
			wantLabelled := 0
			if tc.persist {
				wantLabelled = 1
			}
			if entries, labelled := labelledEntries(t, shared); entries != store.Len()-1 || labelled != wantLabelled {
				t.Errorf("%d of %d entry PDUs carry a control, want %d", labelled, entries, wantLabelled)
			}
			s, p := sb.SyncCounters().Snapshot(), pb.SyncCounters().Snapshot()
			if s.ReloadSnapshotsBuilt != 1 || s.ReloadSnapshotsShared != sessions-1 {
				t.Errorf("shared engine: snapshots built/shared = %d/%d, want 1/%d", s.ReloadSnapshotsBuilt, s.ReloadSnapshotsShared, sessions-1)
			}
			if s.StreamDedupPDUs == 0 {
				t.Error("shared engine: no reload PDU was served from the encoding memo")
			}
			if p.StreamEncodes != 0 || p.StreamDedupPDUs != 0 {
				t.Errorf("per-session reference touched an encoding memo: encodes/dedup = %d/%d",
					p.StreamEncodes, p.StreamDedupPDUs)
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
// path: writing a batch whose PDUs are already in the shared memo allocates
// a small constant per batch, however many PDUs it carries. Each message is
// its session's message ID around the shared tail, appended into the pooled
// response buffer: no envelope of its own, no op, no control, no copy of the
// entry. "reload" is a Begin's content; "pushed batch" is a persist batch,
// whose last PDU names the sync point it reaches — the same point for every
// member crossing its interval, so that tail is shared too.
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
	s := &Server{backend: backend, syncStats: backend.SyncCounters(), conns: map[net.Conn]bool{}}
	w := newConnWriter(discardConn{})
	batch := pushedBatch(res)
	for _, tt := range []struct {
		name string
		last proto.EntryChange
		// gate is the allocations per batch: the response and a pooled
		// buffer.
		gate float64
	}{
		{"reload", proto.EntryChange{}, 2},
		{"pushed batch", pushedEnd(batch), 2},
	} {
		t.Run(tt.name, func(t *testing.T) {
			write := func() {
				if err := s.writeBatch(w, 5, batch, tt.last); err != nil {
					t.Fatal(err)
				}
			}
			write() // the first member pays for the encoding
			total, pdus := testing.AllocsPerRun(20, write), float64(len(batch.Updates))
			t.Logf("shared-encode hit path, %s: %.0f allocations for %.0f PDUs", tt.name, total, pdus)
			if total > tt.gate {
				t.Errorf("hit path allocates %.0f times for %.0f PDUs, gate is %.0f per batch", total, pdus, tt.gate)
			}
		})
	}
}

// TestBareAddRule pins which update PDUs carry the entry-change control:
// every action, alone in its batch as an exchange's answer and as pushed
// batches that end in every kind of sync point, streamed over a connection
// with and without a shared-encoding memo. Exactly an add in an exchange's
// answer travels bare, and every PDU decodes to the update that was sent,
// with the sync point it was sent with — a point at CSN 0 included.
func TestBareAddRule(t *testing.T) {
	emp := tableOneEmployee(t)
	renamed := emp.Clone()
	renamed.SetDN(dn.MustParse("cn=emp us 0 renamed,c=us,o=xyz"))
	renamed.Put("cn", "emp us 0 renamed")
	actions := []struct {
		name string
		u    resync.Update
	}{
		{"add", resync.Update{Action: resync.ActionAdd, DN: emp.DN(), Entry: emp}},
		{"modify", resync.Update{Action: resync.ActionModify, DN: emp.DN(), Entry: emp}},
		{"patch", resync.Update{Action: resync.ActionModify, DN: emp.DN(), Patch: true,
			Entry: emp.Freeze().Restrict([]string{"telephonenumber"})}},
		{"move", resync.Update{Action: resync.ActionModify, DN: renamed.DN(), Patch: true, OldDN: emp.DN(),
			Entry: renamed.Freeze().Restrict([]string{"cn"})}},
		{"delete", resync.Update{Action: resync.ActionDelete, DN: emp.DN()}},
		{"retain", resync.Update{Action: resync.ActionRetain, DN: emp.DN()}},
	}
	ends := []struct {
		name string
		last proto.EntryChange
	}{
		{"exchange", proto.EntryChange{}},
		{"pushed", proto.EntryChange{Final: true, Point: 41, CSN: 41}},
		{"pushed at CSN 0", proto.EntryChange{Final: true}},
		{"pushed by a tier", proto.EntryChange{Final: true, Point: 7, CSN: 41}},
		{"first pushed", proto.EntryChange{Final: true, Point: 41, CSN: 41, Cookie: "sess-3@41"}},
	}
	for _, a := range actions {
		for _, end := range ends {
			for _, shared := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/cookie=%q/%s/shared=%v", a.name, end.last.Cookie, end.name, shared), func(t *testing.T) {
					var enc *resync.SharedEnc
					if shared {
						enc = &resync.SharedEnc{}
					}
					srvEnd, cliEnd := net.Pipe()
					defer cliEnd.Close()
					s := &Server{conns: map[net.Conn]bool{}, syncStats: &metrics.SyncCounters{}}
					w := newConnWriter(srvEnd)
					sent := make(chan error, 1)
					go func() {
						sent <- s.writeBatch(w, 5, resync.Batch{Updates: []resync.Update{a.u}, Enc: enc}, end.last)
					}()
					m, err := proto.ReadMessage(bufio.NewReader(cliEnd))
					if err != nil {
						t.Fatal(err)
					}
					if err := <-sent; err != nil {
						t.Fatal(err)
					}
					if bare := len(m.Controls) == 0; bare != (a.u.Action == resync.ActionAdd && !end.last.Final) {
						t.Errorf("PDU carries %d controls", len(m.Controls))
					}
					got, ec, err := decodeUpdate(m, m.Op.(*proto.SearchEntry))
					if err != nil {
						t.Fatal(err)
					}
					want := end.last
					if got.Action != a.u.Action || !got.DN.Equal(a.u.DN) || got.Patch != a.u.Patch ||
						!got.OldDN.Equal(a.u.OldDN) || (got.Entry == nil) != (a.u.Entry == nil) ||
						(got.Entry != nil && !got.Entry.Equal(a.u.Entry)) ||
						ec.Final != want.Final || ec.Point != want.Point || ec.CSN != want.CSN || ec.Cookie != want.Cookie {
						t.Errorf("decoded %+v (%+v), sent %+v (%+v)", got, ec, a.u, want)
					}
				})
			}
		}
	}
}
