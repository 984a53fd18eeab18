package ldapnet

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/resync"
	"filterdir/internal/resync/resynctest"
	"filterdir/internal/workload"
)

// countConn counts the bytes a client reads off the wire.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// TestMoveOverWire: a persist session over loopback sees a Table-1 employee
// renamed within its content as one move PDU of at most 170 B — the delete
// of the old DN plus the complete entry under the new one cost about 940 B —
// and the consumer that applies it holds the entry, whole, under the new DN
// only.
func TestMoveOverWire(t *testing.T) {
	const maxMoveWireBytes = 170 // measured 139
	dir, err := workload.BuildDirectory(workload.DefaultDirectoryConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	srv, backend := startServer(t, dir.Master)
	spec := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=10*)")
	res, err := dialT(t, srv.Addr()).Sync(spec, proto.ReSyncModePoll, "")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := newReplicaDit()
	if err != nil {
		t.Fatal(err)
	}
	ap := resync.NewApplier(rep)
	if err := ap.Apply(spec, res); err != nil {
		t.Fatal(err)
	}
	var read atomic.Int64
	dial := func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := netDial(addr, timeout)
		return countConn{Conn: conn, n: &read}, err
	}
	ps, err := PersistWith(dial, srv.Addr(), spec, res.Cookie, DefaultTimeout, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	old := dir.Employees[0].DN
	newRDN := dn.RDN{Attr: "cn", Value: "emp us 0 renamed"}
	parent, _ := old.Parent()
	before := read.Load()
	if err := dir.Master.ModifyDN(old, newRDN, parent); err != nil {
		t.Fatal(err)
	}
	u := <-ps.Updates
	pdu := read.Load() - before
	if !u.IsMove() || !u.OldDN.Equal(old) || !u.DN.Equal(parent.Child(newRDN)) || u.Cookie == "" {
		t.Fatalf("pushed update %+v, want the move %s -> %s closing its batch", u, old, parent.Child(newRDN))
	}
	t.Logf("rename within the content: one %d B move PDU", pdu)
	if pdu > maxMoveWireBytes {
		t.Errorf("move PDU is %d B on the wire, gate is %d", pdu, maxMoveWireBytes)
	}
	if err := ap.Apply(spec, &resync.PollResult{Updates: []resync.Update{u.Update}}); err != nil {
		t.Fatal(err)
	}
	if ok, why := resynctest.Converged(dir.Master, rep, spec); !ok {
		t.Errorf("consumer after the move: %s", why)
	}
	if s := backend.SyncCounters().Snapshot(); s.PDUMoves != 1 || s.PDUDeletes != 0 {
		t.Errorf("master sent %d moves and %d deletes, want 1 and 0", s.PDUMoves, s.PDUDeletes)
	}
}

// TestUnencodableUpdateEndsTheExchange: an update the wire has no action for
// is an error, not a PDU quietly left out — as the last of a batch it would
// have taken the batch's cookie with it. A PDU whose action the consumer does
// not know is refused at decode, before anything of its batch is applied.
func TestUnencodableUpdateEndsTheExchange(t *testing.T) {
	s := &Server{conns: map[net.Conn]bool{}}
	state := &connState{w: newConnWriter(discardConn{}, nil)}
	defer state.w.close()
	e := tableOneEmployee(t)
	updates := []resync.Update{{Action: resync.ActionAdd, DN: e.DN(), Entry: e}, {DN: e.DN()}}
	if err := s.streamUpdates(state, discardConn{}, 5, updates, "sess-1@2", 7, nil, false); err == nil {
		t.Error("an update without a wire action was streamed without error")
	}

	pdu, err := (&proto.Message{ID: 9, Op: &proto.SearchEntry{Entry: e},
		Controls: []proto.Control{proto.EntryChange{Action: proto.ChangeActionMove + 1}.Control()}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	m, err := proto.Decode(pdu)
	if err != nil {
		t.Fatal(err)
	}
	if u, _, _, err := decodeUpdate(m, m.Op.(*proto.SearchEntry)); err == nil {
		t.Errorf("a PDU with an unknown action decoded as %+v", u)
	}
}

// tableOneEmployee is one employee of a small synthetic directory.
func tableOneEmployee(t *testing.T) *entry.Entry {
	t.Helper()
	dir, err := workload.BuildDirectory(workload.DefaultDirectoryConfig(20))
	if err != nil {
		t.Fatal(err)
	}
	e, _ := dir.Master.Held(dir.Employees[0].DN.Norm())
	return e
}

// TestDecodeAllocsPerMove is the allocation gate of the consumer's decode of
// a move: the patch's (TestDecodeAllocsPerPatch) plus the old DN, copied off
// the control and parsed.
func TestDecodeAllocsPerMove(t *testing.T) {
	const maxMoveDecodeAllocs = 12 // measured 11
	emp := tableOneEmployee(t)
	renamed := emp.Clone()
	renamed.SetDN(dn.MustParse("cn=emp us 0 renamed,c=us,o=xyz"))
	renamed.Put("cn", "emp us 0 renamed")
	pdu, err := (&proto.Message{ID: 9, Op: &proto.SearchEntry{Entry: renamed.Freeze().Restrict([]string{"cn"})},
		Controls: []proto.Control{proto.EntryChange{Action: proto.ChangeActionMove, Cookie: "sess-12@3456", CSN: 123456,
			OldDN: emp.DN().String()}.Control()}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	var sink resync.Update
	allocs := testing.AllocsPerRun(200, func() {
		m, err := proto.Decode(pdu)
		if err != nil {
			t.Fatal(err)
		}
		if sink, _, _, err = decodeUpdate(m, m.Op.(*proto.SearchEntry)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decode: %.0f allocations per move", allocs)
	if !sink.IsMove() || !sink.OldDN.Equal(emp.DN()) {
		t.Fatalf("decoded %+v, want the move from %s", sink, emp.DN())
	}
	if allocs > maxMoveDecodeAllocs {
		t.Errorf("decode of one move allocates %.0f times, gate is %d", allocs, maxMoveDecodeAllocs)
	}
}
