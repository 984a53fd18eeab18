package ldapnet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"filterdir/internal/chaos"
	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/proto"
	"filterdir/internal/query"
)

// writeLog records every Write the server makes on the connections of a
// recordingListener, one copy per call. before, if set, sees each write
// first, while the connection writer holds its lock.
type writeLog struct {
	mu     sync.Mutex
	writes [][]byte
	before func(p []byte)
}

func (l *writeLog) all() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([][]byte(nil), l.writes...)
}

type recordingListener struct {
	net.Listener
	log *writeLog
}

func (l recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &recordingConn{Conn: c, log: l.log}, nil
}

type recordingConn struct {
	net.Conn
	log *writeLog
}

func (c *recordingConn) Write(p []byte) (int, error) {
	if c.log.before != nil {
		c.log.before(p)
	}
	c.log.mu.Lock()
	c.log.writes = append(c.log.writes, bytes.Clone(p))
	c.log.mu.Unlock()
	return c.Conn.Write(p)
}

// splitMessages decodes a buffer that must hold whole messages only.
func splitMessages(b []byte) ([]*proto.Message, error) {
	r := bufio.NewReader(bytes.NewReader(b))
	var out []*proto.Message
	for {
		m, err := proto.ReadMessage(r)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, m)
	}
}

func writeRequest(t *testing.T, conn net.Conn, m *proto.Message) {
	t.Helper()
	if err := m.Write(conn); err != nil {
		t.Fatal(err)
	}
}

// TestCoalescedResponseFraming: a Begin whose answer spans several response
// buffers, on a connection whose persist stream pushes batches while the
// answer is being written — the first write of the answer commits them, one
// store commit each, so the stream's goroutine builds its batches while the
// answer holds the connection and writes them between the answer's buffers.
// Every message the client reads decodes; each response's PDUs arrive in the
// order they were produced and end with its SearchDone; and on the server
// side every Write is whole messages of one response, so the two interleave
// at message granularity, and none is larger than the response buffer unless
// it is a single PDU.
func TestCoalescedResponseFraming(t *testing.T) {
	store := reloadStore(t, 900)
	backend := NewStoreBackend(store)
	ref, err := backend.Engine.Begin(reloadSpec)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const pushes = 40
	var once sync.Once
	pushed := make(chan error, 1)
	log := &writeLog{before: func(p []byte) {
		if msgs, _ := splitMessages(p); len(msgs) == 0 || msgs[0].ID != 2 {
			return
		}
		once.Do(func() { pushed <- pushEntries(store, 0, pushes) })
	}}
	srv := ServeListener(recordingListener{ln, log}, backend)
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))

	streamSpec := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=05*)")
	writeRequest(t, conn, &proto.Message{ID: 1, Op: &proto.SearchRequest{Query: streamSpec},
		Controls: []proto.Control{proto.NewReSyncRequestControl(proto.ReSyncModePersist, "")}})
	for backend.SyncCounters().PersistStreams.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	writeRequest(t, conn, &proto.Message{ID: 2, Op: &proto.SearchRequest{Query: reloadSpec},
		Controls: []proto.Control{proto.NewReSyncRequestControl(proto.ReSyncModePoll, "")}})

	// Read until both responses are done; abandon the stream once every
	// push has arrived, which ends it with its SearchDone.
	got := map[int64][]*proto.Message{}
	r := bufio.NewReader(conn)
	for done := 0; done < 2; {
		m, err := proto.ReadMessage(r)
		if err != nil {
			t.Fatalf("after %d stream and %d Begin messages: %v", len(got[1]), len(got[2]), err)
		}
		got[m.ID] = append(got[m.ID], m)
		if _, ok := m.Op.(*proto.SearchDone); ok {
			done++
		} else if m.ID == 1 && len(got[1]) == pushes {
			writeRequest(t, conn, &proto.Message{ID: 3, Op: &proto.AbandonRequest{MessageID: 1}})
		}
	}
	if err := <-pushed; err != nil {
		t.Fatal(err)
	}

	check := func(id int64, wantDNs []string, pointOnLast bool) {
		t.Helper()
		msgs := got[id]
		if len(msgs) != len(wantDNs)+1 {
			t.Fatalf("response %d: %d messages, want %d entries and a SearchDone", id, len(msgs), len(wantDNs))
		}
		for i, want := range wantDNs {
			se, ok := msgs[i].Op.(*proto.SearchEntry)
			if !ok {
				t.Fatalf("response %d: message %d is %T before the last", id, i, msgs[i].Op)
			}
			if se.Entry.DN().String() != want {
				t.Fatalf("response %d: entry %d is %s, want %s", id, i, se.Entry.DN(), want)
			}
		}
		done, ok := msgs[len(msgs)-1].Op.(*proto.SearchDone)
		if !ok || done.Code != proto.ResultSuccess {
			t.Fatalf("response %d does not end with a successful SearchDone: %+v", id, msgs[len(msgs)-1].Op)
		}
		last := msgs[len(msgs)-2]
		if _, ec, err := decodeUpdate(last, last.Op.(*proto.SearchEntry)); err != nil || ec.Final != pointOnLast {
			t.Errorf("response %d: last entry's control %+v (%v)", id, ec, err)
		}
	}
	var beginDNs, streamDNs []string
	for _, u := range ref.Updates {
		beginDNs = append(beginDNs, u.DN.String())
	}
	for i := 0; i < pushes; i++ {
		streamDNs = append(streamDNs, fmt.Sprintf("cn=q%03d,o=xyz", i))
	}
	check(2, beginDNs, false)
	check(1, streamDNs, true)

	// owner[i] is the response write i belongs to.
	var owner []int64
	maxWrite := 0
	for i, w := range log.all() {
		msgs, err := splitMessages(w)
		if err != nil || len(msgs) == 0 {
			t.Fatalf("write %d (%d B) is not whole messages: %d decoded, %v", i, len(w), len(msgs), err)
		}
		for _, m := range msgs[1:] {
			if m.ID != msgs[0].ID {
				t.Fatalf("write %d mixes messages of %d and %d", i, msgs[0].ID, m.ID)
			}
		}
		if len(w) > respBufSize && len(msgs) > 1 {
			t.Errorf("write %d: %d B in %d messages, bound %d B", i, len(w), len(msgs), respBufSize)
		}
		maxWrite = max(maxWrite, len(w))
		owner = append(owner, msgs[0].ID)
	}
	first, last, between := slices.Index(owner, 2), 0, 0
	for i, id := range owner {
		if id == 2 {
			last = i
		}
	}
	for _, id := range owner[first:last] {
		if id == 1 {
			between++
		}
	}
	t.Logf("Begin: %d entries in %d writes (largest %d B); %d stream writes among them",
		len(ref.Updates), last-first+1-between, maxWrite, between)
}

// pacedReader reads at most 64 KiB per call and 20 ms apart: a consumer
// slower than the server can write.
type pacedReader struct{ r io.Reader }

func (p pacedReader) Read(b []byte) (int, error) {
	time.Sleep(20 * time.Millisecond)
	return p.r.Read(b[:min(len(b), 64<<10)])
}

// smallBufListener gives each accepted TCP connection a 64 KiB send buffer,
// so the server's writes wait for its peer instead of the kernel absorbing
// the whole answer.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(64 << 10)
	}
	return c, err
}

// TestSlowReaderKeepsItsStream: a Begin answer of over 4 MB to a client that
// reads 64 KiB every 20 ms, while the persist stream on the same connection
// pushes 192 entries, one store commit each. The answer's first write holds
// the connection until the stream has built its first push, so every batch
// of the stream waits for the connection behind a slow answer, and the
// subscriber queue fills and coalesces meanwhile. The stream is not demoted:
// its consumer keeps taking batches, each after at most one buffer of the
// answer. Every push arrives, in order, all of them before the answer ends,
// and the answer is whole.
func TestSlowReaderKeepsItsStream(t *testing.T) {
	store := reloadStore(t, 2900)
	backend := NewStoreBackend(store)
	ref, err := backend.Engine.Begin(reloadSpec)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const pushes = 192
	stats := backend.SyncCounters()
	var once sync.Once
	pushed := make(chan error, 1)
	log := &writeLog{before: func(p []byte) {
		if msgs, _ := splitMessages(p); len(msgs) == 0 || msgs[0].ID != 2 {
			return
		}
		once.Do(func() {
			// The answer is not building PDUs while its write is held, so
			// what StreamedPDUs counts from here on is the stream's.
			base := stats.StreamedPDUs.Load()
			go func() { pushed <- pushEntries(store, 0, pushes) }()
			for deadline := time.Now().Add(10 * time.Second); stats.StreamedPDUs.Load() == base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Error("the stream built no push while the answer held the writer")
					return
				}
			}
		})
	}}
	srv := ServeListener(recordingListener{smallBufListener{ln}, log}, backend)
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.(*net.TCPConn).SetReadBuffer(64 << 10)
	_ = conn.SetDeadline(time.Now().Add(60 * time.Second))

	streamSpec := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=05*)")
	writeRequest(t, conn, &proto.Message{ID: 1, Op: &proto.SearchRequest{Query: streamSpec},
		Controls: []proto.Control{proto.NewReSyncRequestControl(proto.ReSyncModePersist, "")}})
	for stats.PersistStreams.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	writeRequest(t, conn, &proto.Message{ID: 2, Op: &proto.SearchRequest{Query: reloadSpec},
		Controls: []proto.Control{proto.NewReSyncRequestControl(proto.ReSyncModePoll, "")}})

	got := map[int64][]*proto.Message{}
	streamBeforeDone := 0
	r := bufio.NewReaderSize(pacedReader{conn}, 64<<10)
	for done := 0; done < 2; {
		m, err := proto.ReadMessage(r)
		if err != nil {
			t.Fatalf("after %d stream and %d Begin messages: %v", len(got[1]), len(got[2]), err)
		}
		got[m.ID] = append(got[m.ID], m)
		if _, ok := m.Op.(*proto.SearchDone); ok {
			done++
			if m.ID == 2 {
				streamBeforeDone = len(got[1])
			}
		} else if m.ID == 1 && len(got[1]) == pushes {
			writeRequest(t, conn, &proto.Message{ID: 3, Op: &proto.AbandonRequest{MessageID: 1}})
		}
	}
	if err := <-pushed; err != nil {
		t.Fatal(err)
	}
	if n := stats.SlowDemotions.Load(); n != 0 {
		t.Fatalf("%d streams demoted", n)
	}
	for id, want := range map[int64]int{1: pushes, 2: len(ref.Updates)} {
		msgs := got[id]
		if len(msgs) != want+1 {
			t.Fatalf("response %d: %d messages, want %d entries and a SearchDone", id, len(msgs), want)
		}
		for i, m := range msgs[:want] {
			se, ok := m.Op.(*proto.SearchEntry)
			if !ok {
				t.Fatalf("response %d: message %d is %T", id, i, m.Op)
			}
			wantDN := fmt.Sprintf("cn=q%03d,o=xyz", i)
			if id == 2 {
				wantDN = ref.Updates[i].DN.String()
			}
			if se.Entry.DN().String() != wantDN {
				t.Fatalf("response %d: entry %d is %s, want %s", id, i, se.Entry.DN(), wantDN)
			}
		}
	}
	if streamBeforeDone != pushes {
		t.Errorf("%d of %d stream messages arrived before the answer ended", streamBeforeDone, pushes)
	}
	answer := 0
	for _, w := range log.all() {
		if msgs, _ := splitMessages(w); len(msgs) > 0 && msgs[0].ID == 2 {
			answer += len(w)
		}
	}
	if answer < 4<<20 {
		t.Fatalf("the answer is %d B, want at least 4 MiB", answer)
	}
	t.Logf("answer %d B; %d of %d pushes arrived before it ended", answer, streamBeforeDone, pushes)
}

// pushEntries commits n entries the persist stream's spec selects, numbered
// from first, one store commit each.
func pushEntries(store *dit.Store, first, n int) error {
	for i := first; i < first+n; i++ {
		e := entry.New(dn.MustParse(fmt.Sprintf("cn=q%03d,o=xyz", i)))
		e.Put("objectclass", "person").Put("cn", fmt.Sprintf("q%03d", i)).Put("sn", "q").
			Put("serialNumber", fmt.Sprintf("05%03d", i))
		if err := store.Add(e); err != nil {
			return err
		}
	}
	return nil
}

// TestTornCoalescedWriteFailsTheExchange: a write torn halfway through a
// response buffer fails the writer — the server drops the connection — and
// the client's exchange ends in a transport error without the done control,
// so there is no cookie a consumer could adopt for the half it received.
// The same Begin on a fresh connection is whole.
func TestTornCoalescedWriteFailsTheExchange(t *testing.T) {
	store := reloadStore(t, 900)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Operation 1 is the server's read of the Begin, 2 and 3 the first two
	// writes of its answer: the second is torn.
	inj := chaos.New(chaos.Plan{TornWriteEveryNOps: 3})
	srv := ServeListener(inj.Listener(ln), NewStoreBackend(store))
	defer srv.Close()

	c := dialT(t, srv.Addr())
	res, err := c.Sync(reloadSpec, proto.ReSyncModePoll, "")
	if err == nil {
		t.Fatalf("a Begin whose answer was torn succeeded with %d updates", len(res.Updates))
	}
	if !IsTransient(err) {
		t.Errorf("torn answer: %v, want a transport error", err)
	}
	if res.Cookie != "" || len(res.Updates) >= store.Len()-1 {
		t.Errorf("torn answer delivered %d updates and cookie %q", len(res.Updates), res.Cookie)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.ActiveConns() > 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the server kept the connection whose write was torn")
		}
	}

	inj.SetPlan(chaos.Plan{})
	res, err = dialT(t, srv.Addr()).Sync(reloadSpec, proto.ReSyncModePoll, "")
	if err != nil || res.Cookie == "" || len(res.Updates) != store.Len()-1 {
		t.Fatalf("fresh Begin: %v, %d updates, cookie %q", err, len(res.Updates), res.Cookie)
	}
}

// TestClientReadDeadlineBoundsAStall pins the bound of the client's lazy
// read deadline: a server that stops sending mid-response for the timeout
// fails the exchange within twice the timeout of when it stopped, and one
// that pauses for less than half the timeout between PDUs — for longer
// than the timeout in total — does not.
func TestClientReadDeadlineBoundsAStall(t *testing.T) {
	const timeout = 400 * time.Millisecond
	e := tableOneEmployee(t)
	// serve answers one search on a pipe with entries, waiting pause before
	// each; a negative pause stalls until the client hangs up, or for five
	// timeouts, after which it hangs up itself.
	serve := func(srvEnd net.Conn, pauses []time.Duration, stalled chan<- time.Time) {
		defer srvEnd.Close()
		req, err := proto.ReadMessage(bufio.NewReader(srvEnd))
		if err != nil {
			return
		}
		for _, p := range pauses {
			if p < 0 {
				stalled <- time.Now()
				_ = srvEnd.SetReadDeadline(time.Now().Add(5 * timeout))
				_, _ = io.Copy(io.Discard, srvEnd)
				return
			}
			time.Sleep(p)
			if (&proto.Message{ID: req.ID, Op: &proto.SearchEntry{Entry: e}}).Write(srvEnd) != nil {
				return
			}
		}
		_ = (&proto.Message{ID: req.ID, Op: &proto.SearchDone{}}).Write(srvEnd)
	}
	search := func(pauses []time.Duration, stalled chan time.Time) (*SearchResult, error) {
		served := make(chan struct{})
		dial := func(string, time.Duration) (net.Conn, error) {
			srvEnd, cliEnd := net.Pipe()
			go func() { defer close(served); serve(srvEnd, pauses, stalled) }()
			return cliEnd, nil
		}
		c, err := DialWith(dial, "pipe", timeout)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Search(reloadSpec)
		_ = c.conn.Close()
		<-served
		return res, err
	}

	t.Run("stall", func(t *testing.T) {
		stalled := make(chan time.Time, 1)
		_, err := search([]time.Duration{0, 0, -1}, stalled)
		since := time.Since(<-stalled)
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("stalled mid-response: %v, want a timeout", err)
		}
		if since > 2*timeout {
			t.Errorf("stall detected %v after it began, bound %v", since.Round(time.Millisecond), 2*timeout)
		}
		t.Logf("stall detected %v after it began (timeout %v)", since.Round(time.Millisecond), timeout)
	})
	t.Run("paced", func(t *testing.T) {
		pauses := make([]time.Duration, 7)
		for i := range pauses {
			pauses[i] = timeout / 5
		}
		start := time.Now()
		res, err := search(pauses, nil)
		if err != nil || len(res.Entries) != len(pauses) {
			t.Fatalf("paced response over %v: %v, %d entries", time.Since(start).Round(time.Millisecond), err, len(res.Entries))
		}
	})
}
