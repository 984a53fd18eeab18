package ldapnet

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"filterdir/internal/ber"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/resync"
)

// nestedNotSearch encodes a subtree search under o=xyz whose filter is (cn=*)
// inside n NOTs. The filter is written from the inside out into one buffer
// sized up front: the encoder recurses once per level, as the decoder did.
func nestedNotSearch(n int) []byte {
	const tagNot, tagPresent = 2, 7 // RFC 2251 filter choices
	present := ber.AppendString(nil, ber.ClassContext, tagPresent, "cn")
	size := len(present)
	for i := 0; i < n; i++ {
		size += ber.HeaderLen(size)
	}
	f := make([]byte, size)
	pos := size - copy(f[size-len(present):], present)
	var scratch [8]byte
	for pos > 0 {
		h := ber.AppendHeader(scratch[:0], ber.ClassContext, true, tagNot, size-pos)
		pos -= copy(f[pos-len(h):], h)
	}
	body := ber.AppendString(nil, ber.ClassUniversal, ber.TagOctetString, "o=xyz")
	body = ber.AppendEnum(body, int64(query.ScopeSubtree))
	body = ber.AppendEnum(body, 0)                                    // derefAliases
	body = ber.AppendInt(body, ber.ClassUniversal, ber.TagInteger, 0) // sizeLimit
	body = ber.AppendInt(body, ber.ClassUniversal, ber.TagInteger, 0) // timeLimit
	body = ber.AppendBool(body, false)
	body = append(body, f...)
	body = ber.AppendSequence(body, nil) // attributes
	return proto.EncodeWithOpBody(1, &proto.SearchRequest{}, body, nil)
}

// TestDeeplyNestedFilterDropsOneConnection: a search whose filter nests three
// million NOTs — 15 MB, inside the message size bound — is a decode error,
// not a stack overflow that ends the process. The server drops the one
// connection that sent it and answers the next.
func TestDeeplyNestedFilterDropsOneConnection(t *testing.T) {
	msg := nestedNotSearch(3_000_000)
	t.Logf("nested-filter search: %d B", len(msg))
	if _, err := proto.Decode(msg); err == nil {
		t.Fatal("a filter nested three million levels deep decoded")
	}
	if _, err := proto.Decode(nestedNotSearch(64)); err != nil {
		t.Fatalf("a filter nested 64 levels deep was refused: %v", err)
	}
	if _, err := proto.Decode(nestedNotSearch(65)); err == nil {
		t.Fatal("a filter nested 65 levels deep decoded")
	}

	srv, _ := startServer(t, newTestStore(t))
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	var ne net.Error
	if m, err := proto.ReadMessage(bufio.NewReader(conn)); err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Errorf("after the nested filter the connection read %v, %v; want it closed", m, err)
	}
	res, err := dialT(t, srv.Addr()).Search(query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)"))
	if err != nil || len(res.Entries) != 5 {
		t.Fatalf("a fresh connection after the nested filter: %v", err)
	}
}

// pipeListener accepts the server ends of in-memory pipes. A pipe has no
// buffer: a peer that never reads its end blocks the server's first write.
type pipeListener struct {
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// TestNeverReadingPeerIsDropped: a consumer that stops reading — a
// half-open peer — holds the server's write only until the write timeout;
// then the server closes the connection. "reload" asks for a reload and never
// reads a byte of it. "persist stream" opens a persist stream, takes its
// first pushes and stops reading; its session outlives the connection and
// answers a poll by the cookie the peer last took with what it missed.
func TestNeverReadingPeerIsDropped(t *testing.T) {
	defer func(d time.Duration) { writeTimeout = d }(writeTimeout)
	writeTimeout = 250 * time.Millisecond
	// serve starts a server on backend and hands it the server end of a
	// pipe, whose other end it returns.
	serve := func(t *testing.T, backend Backend) (*Server, net.Conn) {
		l := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
		srv := ServeListener(l, backend)
		t.Cleanup(func() { _ = srv.Close() })
		srvEnd, peer := net.Pipe()
		t.Cleanup(func() { _ = peer.Close() })
		l.conns <- srvEnd
		return srv, peer
	}
	// dropped waits for srv to drop its connection, within two write
	// timeouts of since.
	dropped := func(t *testing.T, srv *Server, since time.Time) {
		for srv.ActiveConns() > 0 {
			if time.Since(since) > 2*writeTimeout {
				t.Fatalf("the server still holds the connection %v after the peer stopped reading; write timeout %v",
					time.Since(since).Round(time.Millisecond), writeTimeout)
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Logf("never-reading peer dropped %v after it stopped reading", time.Since(since).Round(time.Millisecond))
	}

	t.Run("reload", func(t *testing.T) {
		srv, peer := serve(t, NewStoreBackend(reloadStore(t, 40)))
		begin := &proto.Message{ID: 1, Op: &proto.SearchRequest{Query: reloadSpec},
			Controls: []proto.Control{proto.NewReSyncRequestControl(proto.ReSyncModePoll, "")}}
		if err := begin.Write(peer); err != nil {
			t.Fatal(err)
		}
		dropped(t, srv, time.Now())
	})

	t.Run("persist stream", func(t *testing.T) {
		store := reloadStore(t, 40)
		backend := NewStoreBackend(store)
		srv, peer := serve(t, backend)
		_ = peer.SetReadDeadline(time.Now().Add(10 * time.Second))
		streamSpec := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=05*)")
		begin := &proto.Message{ID: 1, Op: &proto.SearchRequest{Query: streamSpec},
			Controls: []proto.Control{proto.NewReSyncRequestControl(proto.ReSyncModePersist, "")}}
		if err := begin.Write(peer); err != nil {
			t.Fatal(err)
		}
		for backend.SyncCounters().PersistStreams.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		const taken, missed = 5, 3
		if err := pushEntries(store, 0, taken); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(peer)
		var session, cookie string
		for i := 0; i < taken; i++ {
			m, err := proto.ReadMessage(r)
			if err != nil {
				t.Fatalf("push %d: %v", i, err)
			}
			se, ok := m.Op.(*proto.SearchEntry)
			if !ok {
				t.Fatalf("push %d is %T", i, m.Op)
			}
			_, ec, err := decodeUpdate(m, se)
			if err != nil {
				t.Fatal(err)
			}
			if ec.Cookie != "" {
				session, _, _ = resync.SplitCookie(ec.Cookie)
			}
			if ec.Final {
				cookie = resync.CookieString(session, ec.Point)
			}
		}
		if session == "" {
			t.Fatal("no push named the session")
		}
		if err := pushEntries(store, taken, missed); err != nil {
			t.Fatal(err)
		}
		dropped(t, srv, time.Now())
		res, err := backend.Engine.Poll(cookie)
		if err != nil {
			t.Fatalf("poll by the last cookie taken: %v", err)
		}
		if len(res.Updates) != missed {
			t.Errorf("poll by the last cookie taken ships %d updates, want the %d missed", len(res.Updates), missed)
		}
	})
}
