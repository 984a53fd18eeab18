package ldapnet

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/metrics"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/replica"
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
	rep, err := replica.NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	rep.AddStored(spec, res.Cookie)
	if err := rep.ApplySync(spec, res.Updates); err != nil {
		t.Fatal(err)
	}
	var read atomic.Int64
	dial := func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := netDial(addr, timeout)
		return countConn{Conn: conn, n: &read}, err
	}
	pc, err := DialWith(dial, srv.Addr(), DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := pc.Persist(spec, res.Cookie, 0)
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
	b := <-ps.Batches
	pdu := read.Load() - before
	if len(b.Updates) != 1 || b.Cookie == "" {
		t.Fatalf("pushed batch %+v, want the one move and its cookie", b)
	}
	if u := b.Updates[0]; !u.IsMove() || !u.OldDN.Equal(old) || !u.DN.Equal(parent.Child(newRDN)) {
		t.Fatalf("pushed update %+v, want the move %s -> %s", u, old, parent.Child(newRDN))
	}
	t.Logf("rename within the content: one %d B move PDU", pdu)
	if pdu > maxMoveWireBytes {
		t.Errorf("move PDU is %d B on the wire, gate is %d", pdu, maxMoveWireBytes)
	}
	if err := rep.ApplySync(spec, b.Updates); err != nil {
		t.Fatal(err)
	}
	if ok, why := resynctest.Converged(dir.Master, rep.Store(), spec); !ok {
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
	s := &Server{conns: map[net.Conn]bool{}, syncStats: &metrics.SyncCounters{}}
	w := newConnWriter(discardConn{})
	e := tableOneEmployee(t)
	updates := []resync.Update{{Action: resync.ActionAdd, DN: e.DN(), Entry: e}, {DN: e.DN()}}
	b := resync.Batch{Updates: updates, Point: 7, CSN: 7}
	if err := s.writeBatch(w, 5, b, pushedEnd(b)); err == nil {
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
	if u, _, err := decodeUpdate(m, m.Op.(*proto.SearchEntry)); err == nil {
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
	const maxMoveDecodeAllocs = 8 // measured 7 (10 while a DN was its RDNs and an entry its strings, 11 while the control carried a cookie)
	emp := tableOneEmployee(t)
	renamed := emp.Clone()
	renamed.SetDN(dn.MustParse("cn=emp us 0 renamed,c=us,o=xyz"))
	renamed.Put("cn", "emp us 0 renamed")
	pdu, err := (&proto.Message{ID: 9, Op: &proto.SearchEntry{Entry: renamed.Freeze().Restrict([]string{"cn"})},
		Controls: []proto.Control{proto.EntryChange{Action: proto.ChangeActionMove, Final: true, Point: 3456, CSN: 123456,
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
		if sink, _, err = decodeUpdate(m, m.Op.(*proto.SearchEntry)); err != nil {
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
