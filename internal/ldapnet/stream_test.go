package ldapnet

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"filterdir/internal/ber"
	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/resync"
)

var streamSpec = query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)")

// trimPast deletes one entry of streamSpec's content and modifies another
// five times, so a journal of two changes (dit.WithJournalLimit) no longer
// covers a session that saw none of them.
func trimPast(t *testing.T, st *dit.Store) {
	t.Helper()
	if err := st.Delete(dn.MustParse("cn=p0,c=us,o=xyz")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := st.Modify(dn.MustParse("cn=p1,c=us,o=xyz"),
			[]dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{fmt.Sprint("m", i)}}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPersistReloadIsAPollAnswer: a persist request for a session whose sync
// point the journal no longer covers gets the answer a poll gets — the whole
// content, ended by a ReSyncDone that says fullReload, and a resume token
// when the reload is chunked — and no subscription. Streamed as bare adds,
// the reload would leave the consumer holding what the master deleted.
func TestPersistReloadIsAPollAnswer(t *testing.T) {
	for _, chunk := range []int{0, 2} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			store := newTestStore(t, dit.WithJournalLimit(2))
			backend := NewStoreBackend(store, resync.WithChunkSize(chunk))
			srv, err := Serve("127.0.0.1:0", backend)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = srv.Close() })
			c := dialT(t, srv.Addr())
			res, err := c.Sync(streamSpec, proto.ReSyncModePoll, "")
			if err != nil {
				t.Fatal(err)
			}
			for res.Resume != nil {
				if res, err = c.SyncResume(*res.Resume); err != nil {
					t.Fatal(err)
				}
			}
			// A poll from the completion cookie lets the journal go: a
			// chunked transfer holds it until then.
			if res, err = c.Sync(streamSpec, proto.ReSyncModePoll, res.Cookie); err != nil {
				t.Fatal(err)
			}
			trimPast(t, store)

			ps, err := c.Persist(streamSpec, res.Cookie, 0)
			if err != nil {
				t.Fatal(err)
			}
			var got []*resync.PollResult
			for b := range ps.Batches {
				got = append(got, b)
				if !b.FullReload {
					t.Fatalf("persist request answered with a batch of %d updates under %q, want the full reload", len(b.Updates), b.Cookie)
				}
			}
			if err := ps.Err(); err != nil {
				t.Fatalf("stream ended with %v, want the poll answer", err)
			}
			if len(got) != 1 || !got[0].FullReload {
				t.Fatalf("persist request answered with %d results, want one full reload", len(got))
			}
			ans := got[0]
			if (chunk > 0) != (ans.Resume != nil) || (ans.Resume == nil) == (ans.Cookie == "") {
				t.Errorf("answer cookie %q, resume token %v: want the token of a chunked reload, else the cookie", ans.Cookie, ans.Resume)
			}
			n := len(ans.Updates)
			// The client is the caller's again: the rest of a chunked reload
			// comes on it.
			for ans.Resume != nil {
				if ans, err = c.SyncResume(*ans.Resume); err != nil {
					t.Fatal(err)
				}
				n += len(ans.Updates)
			}
			if want := len(store.MatchAll(streamSpec)); n != want {
				t.Errorf("reload carried %d entries, master holds %d", n, want)
			}
			if s := backend.SyncCounters().Snapshot(); s.PersistStreams != 0 {
				t.Errorf("persist streams = %d, want 0: a reload answer starts no subscription", s.PersistStreams)
			}
			// The session streams once the consumer asks again from the
			// reload's cookie.
			ps, err = c.Persist(streamSpec, ans.Cookie, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer ps.Close()
			if err := store.Delete(dn.MustParse("cn=p2,c=us,o=xyz")); err != nil {
				t.Fatal(err)
			}
			select {
			case b := <-ps.Batches:
				if b == nil || len(b.Updates) != 1 || b.Updates[0].Action != resync.ActionDelete || b.FullReload {
					t.Errorf("pushed batch %+v, want the delete", b)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("no batch pushed after the reload")
			}
		})
	}
}

// subsBackend records the subscriptions it hands out, so a test can end a
// stream from the supplier's side as the engine's slow-consumer policy does.
type subsBackend struct {
	*StoreBackend
	mu   sync.Mutex
	subs []*resync.Subscription
}

func (b *subsBackend) ReSyncPersist(cookie string) (*resync.Subscription, error) {
	sub, err := b.StoreBackend.ReSyncPersist(cookie)
	if err == nil {
		b.mu.Lock()
		b.subs = append(b.subs, sub)
		b.mu.Unlock()
	}
	return sub, err
}

// TestStreamEndNamesLastBatch: the SearchDone that ends a stream names the
// sync point of the last batch pushed, never the older one the stream began
// at, and the stream delivers every whole batch before it ends.
func TestStreamEndNamesLastBatch(t *testing.T) {
	store := newTestStore(t)
	b := &subsBackend{StoreBackend: NewStoreBackend(store)}
	srv, err := Serve("127.0.0.1:0", b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	var wire bytes.Buffer
	c, err := DialWith(teeDial(&wire), srv.Addr(), DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Sync(streamSpec, proto.ReSyncModePoll, "")
	if err != nil {
		t.Fatal(err)
	}
	ps, err := c.Persist(streamSpec, res.Cookie, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	var last string
	for i := 0; i < 3; i++ {
		e := entry.New(dn.MustParse(fmt.Sprintf("cn=n%d,c=us,o=xyz", i)))
		e.Put("objectclass", "person").Put("cn", fmt.Sprint("n", i)).Put("sn", "n").Put("serialNumber", fmt.Sprint("049", i))
		if err := store.Add(e); err != nil {
			t.Fatal(err)
		}
		batch := <-ps.Batches
		if batch == nil || batch.Cookie == "" || batch.Cookie == last {
			t.Fatalf("batch %d: %+v, want one with a new cookie", i, batch)
		}
		last = batch.Cookie
	}
	b.mu.Lock()
	sub := b.subs[0]
	b.mu.Unlock()
	sub.Close()
	for batch := range ps.Batches {
		t.Errorf("stream delivered %+v after its last batch", batch)
	}
	if err := ps.Err(); err != nil {
		t.Fatalf("stream ended with %v, want a clean end", err)
	}
	msgs, err := splitMessages(wire.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	done := msgs[len(msgs)-1]
	dc, ok := done.Control(proto.OIDReSyncDone)
	if _, isDone := done.Op.(*proto.SearchDone); !isDone || !ok {
		t.Fatalf("stream ended with %T, want a SearchDone with a done control", done.Op)
	}
	cookie, full, _, err := proto.ParseReSyncDone(dc)
	if err != nil {
		t.Fatal(err)
	}
	if cookie != last || full {
		t.Errorf("stream end names %q (full reload %v), want the last batch's %q", cookie, full, last)
	}
}

// parkingBackend is a store backend that takes filters watches and never
// finds one ready, so every watch stays parked until it is cancelled.
type parkingBackend struct{ *StoreBackend }

func (parkingBackend) Ready(query.Query) (bool, <-chan struct{}) { return false, nil }
func (parkingBackend) Park(query.Query) func()                   { return func() {} }

// TestOneGoroutinePerOpenRequest: a persist stream and a parked filters
// watch each cost the supplier one goroutine — N streams of one content
// group cost exactly N, the group runs none of its own — and abandon and
// connection teardown give every one of them back, also when a request
// reused the ID of an open one.
func TestOneGoroutinePerOpenRequest(t *testing.T) {
	const streams, watches = 6, 4
	store := newTestStore(t)
	srv, err := Serve("127.0.0.1:0", parkingBackend{NewStoreBackend(store)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	sessions := dialT(t, srv.Addr())
	cookie := func() string {
		t.Helper()
		res, err := sessions.Begin(streamSpec)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cookie
	}
	// open sends a request the server answers later, without reading it.
	open := func(c *Client, watch bool) int64 {
		t.Helper()
		control := proto.NewReSyncRequestControl(proto.ReSyncModePersist, cookie())
		if watch {
			control = proto.NewFiltersWatchControl()
		}
		id, err := c.send(&proto.SearchRequest{Query: streamSpec}, control)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	// A bind answered means every request sent before it was dispatched.
	settle := func(cs ...*Client) {
		t.Helper()
		for _, c := range cs {
			if err := bind(c, "", ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The count is of goroutines started since the baseline, not of all:
	// those of earlier tests may still be winding down meanwhile. Even one
	// that was waited for — a server's connection goroutine — counts until
	// it has returned from the act the wait observed, and a plain
	// runtime.NumGoroutine count misses by one.
	var baseline map[string]bool
	goroutines := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			n := 0
			for id := range goroutineIDs() {
				if !baseline[id] {
					n++
				}
			}
			if n == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines more than at the start, want %d", what, n, want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	baseline = goroutineIDs()

	// Two connections, each a read loop of its own.
	abandoned, dropped := dialT(t, srv.Addr()), dialT(t, srv.Addr())
	settle(abandoned, dropped)
	goroutines(2, "two connections")
	var ids []int64
	openRange := func(from, to int, watch bool) {
		t.Helper()
		for i := from; i < to; i++ {
			if i%2 == 0 {
				ids = append(ids, open(abandoned, watch))
			} else {
				open(dropped, watch)
			}
		}
		settle(abandoned, dropped)
	}
	openRange(0, streams, false)
	goroutines(2+streams, fmt.Sprintf("%d streams of one content group open", streams))
	openRange(streams, streams+watches, true)
	goroutines(2+streams+watches, fmt.Sprintf("%d streams and %d parked watches open", streams, watches))

	// A watch that reuses the ID of one still open is cancelled at once: an
	// abandon of the ID could not tell the two apart.
	reuse := &proto.Message{ID: ids[len(ids)-1], Op: &proto.SearchRequest{Query: streamSpec},
		Controls: []proto.Control{proto.NewFiltersWatchControl()}}
	if err := reuse.Write(abandoned.conn); err != nil {
		t.Fatal(err)
	}
	settle(abandoned)
	goroutines(2+streams+watches, "a watch reusing an open ID")

	for _, id := range ids {
		if _, err := abandoned.send(&proto.AbandonRequest{MessageID: id}); err != nil {
			t.Fatal(err)
		}
	}
	_ = dropped.Close()
	settle(abandoned)
	goroutines(1, "half abandoned, the other half's connection closed")
	_ = abandoned.Close()
	goroutines(0, "both connections closed")
}

// goroutineIDs returns the IDs of the process's live goroutines.
func goroutineIDs() map[string]bool {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	ids := make(map[string]bool)
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "goroutine "); ok {
			ids[strings.Fields(rest)[0]] = true
		}
	}
	return ids
}

// messageTails cuts wire bytes into their messages and returns each without
// its message ID: the part a supplier's shared memo holds.
func messageTails(t *testing.T, wire []byte) [][]byte {
	t.Helper()
	var tails [][]byte
	for rd := ber.NewReader(wire); !rd.Empty(); {
		msg, err := rd.ReadExpect(ber.ClassUniversal, ber.TagSequence)
		if err != nil {
			t.Fatal(err)
		}
		id, err := ber.NewReader(msg).ReadInt()
		if err != nil {
			t.Fatal(err)
		}
		tails = append(tails, msg[ber.TLVLen(ber.IntLen(id)):])
	}
	return tails
}

// TestPushedBatchSameForEveryMember: the members of a content group are
// pushed a commit as the same bytes, message IDs apart. The batch's last PDU
// names the sync point, which every member reaches alike, not the session, so
// the group encodes each PDU once and serves the rest from its memo. "tier"
// stamps a watermark other than its local CSN, as a cascade tier does: the
// point's name rides beside it, and is still the same for every member. A
// member's cookie, composed from its session and the pushed point, resumes
// its session.
func TestPushedBatchSameForEveryMember(t *testing.T) {
	const members = 16
	for _, tier := range []bool{false, true} {
		t.Run(map[bool]string{false: "master", true: "tier"}[tier], func(t *testing.T) {
			store := newTestStore(t)
			backend := NewStoreBackend(store)
			if tier {
				backend.Engine.SetWatermarkFunc(func(csn dit.CSN) uint64 { return 1000 + uint64(csn) })
			}
			srv, err := Serve("127.0.0.1:0", backend)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = srv.Close() })
			wires := make([]*bytes.Buffer, members)
			streams := make([]*Stream, members)
			from := make([]int, members)
			for i := range streams {
				wires[i] = &bytes.Buffer{}
				c, err := DialWith(teeDial(wires[i]), srv.Addr(), DefaultTimeout)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = c.Close() })
				for j := 0; j < i; j++ { // so that every member's message IDs differ
					if err := bind(c, "", ""); err != nil {
						t.Fatal(err)
					}
				}
				res, err := c.Sync(streamSpec, proto.ReSyncModePoll, "")
				if err != nil {
					t.Fatal(err)
				}
				from[i] = wires[i].Len()
				if streams[i], err = c.Persist(streamSpec, res.Cookie, 0); err != nil {
					t.Fatal(err)
				}
				defer streams[i].Close()
			}
			for backend.Engine.Counters().PersistStreams.Load() != members {
				time.Sleep(time.Millisecond)
			}
			before := backend.SyncCounters().Snapshot()
			if err := store.Modify(dn.MustParse("cn=p3,c=us,o=xyz"),
				[]dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{"pushed"}}}); err != nil {
				t.Fatal(err)
			}
			csn := store.LastCSN()
			var first [][]byte
			for i, st := range streams {
				var b *resync.PollResult
				select {
				case b = <-st.Batches:
				case <-time.After(10 * time.Second):
					t.Fatalf("member %d: no batch pushed", i)
				}
				wantCSN := uint64(csn)
				if tier {
					wantCSN += 1000
				}
				if _, point, _ := resync.SplitCookie(b.Cookie); len(b.Updates) != 1 || point != uint64(csn) || b.CSN != wantCSN {
					t.Fatalf("member %d: %d updates under %s at CSN %d, want 1 under the point %d at %d",
						i, len(b.Updates), b.Cookie, b.CSN, csn, wantCSN)
				}
				res, err := backend.Engine.Poll(b.Cookie)
				if err != nil || res.FullReload || len(res.Updates) != 0 {
					t.Fatalf("member %d: poll by %s: %v, want an empty resume", i, b.Cookie, err)
				}
				tails := messageTails(t, wires[i].Bytes()[from[i]:])
				if i == 0 {
					first = tails
					continue
				}
				if len(tails) != len(first) {
					t.Fatalf("member %d was pushed %d messages, member 0 %d", i, len(tails), len(first))
				}
				for k := range tails {
					if !bytes.Equal(tails[k], first[k]) {
						t.Errorf("member %d's message %d differs from member 0's beyond its ID:\n  %x\n  %x", i, k, tails[k], first[k])
					}
				}
			}
			after := backend.SyncCounters().Snapshot()
			if enc, dedup := after.StreamEncodes-before.StreamEncodes, after.StreamDedupPDUs-before.StreamDedupPDUs; enc != 1 || dedup != members-1 {
				t.Errorf("the pushed PDU was encoded %d times and served from the memo %d, want 1 and %d", enc, dedup, members-1)
			}
		})
	}
}

// TestStreamFromCSNZero: a store populated by Load holds its content at CSN
// 0, so a Begin there names its sync point 0. A stream asked for from that
// cookie, and one asked for without a cookie — whose first batch is the
// content and names the session whole — both carry the first commit under a
// cookie of their session that resumes it.
func TestStreamFromCSNZero(t *testing.T) {
	store, err := dit.NewStore([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	org := entry.New(dn.MustParse("o=xyz"))
	org.Put("objectclass", "organization").Put("o", "xyz")
	entries := []*entry.Entry{org}
	for i := 0; i < 2; i++ {
		e := entry.New(dn.MustParse(fmt.Sprintf("cn=p%d,o=xyz", i)))
		e.Put("objectclass", "person").Put("cn", fmt.Sprint("p", i)).Put("sn", "x").Put("serialNumber", fmt.Sprint("040", i))
		entries = append(entries, e)
	}
	if err := store.Load(entries); err != nil {
		t.Fatal(err)
	}
	backend := NewStoreBackend(store)
	srv, err := Serve("127.0.0.1:0", backend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	begun, err := dialT(t, srv.Addr()).Sync(streamSpec, proto.ReSyncModePoll, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, point, ok := resync.SplitCookie(begun.Cookie); !ok || point != 0 {
		t.Fatalf("Begin at CSN 0 answered cookie %q", begun.Cookie)
	}
	resumed, err := dialT(t, srv.Addr()).Persist(streamSpec, begun.Cookie, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	fresh, err := dialT(t, srv.Addr()).Persist(streamSpec, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	next := func(st *Stream) *resync.PollResult {
		t.Helper()
		select {
		case b := <-st.Batches:
			if b == nil {
				t.Fatalf("stream ended: %v", st.Err())
			}
			return b
		case <-time.After(10 * time.Second):
			t.Fatal("no batch")
		}
		return nil
	}
	content := next(fresh)
	if id, point, ok := resync.SplitCookie(content.Cookie); !ok || point != 0 || id == "" || content.CSN != 0 || len(content.Updates) != len(begun.Updates) {
		t.Fatalf("first batch of a stream asked for without a cookie: %d updates under %q at CSN %d, want %d under a point named 0",
			len(content.Updates), content.Cookie, content.CSN, len(begun.Updates))
	}
	for backend.Engine.Counters().PersistStreams.Load() != 2 {
		time.Sleep(time.Millisecond)
	}
	if err := store.Delete(dn.MustParse("cn=p1,o=xyz")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		st     *Stream
		opened string
	}{{"resumed", resumed, begun.Cookie}, {"fresh", fresh, content.Cookie}} {
		b := next(tc.st)
		id, _, _ := resync.SplitCookie(tc.opened)
		if want := resync.CookieString(id, uint64(store.LastCSN())); b.Cookie != want || len(b.Updates) != 1 {
			t.Errorf("%s: %d updates under %q, want 1 under %q", tc.name, len(b.Updates), b.Cookie, want)
		}
		res, err := backend.Engine.Poll(b.Cookie)
		if err != nil || res.FullReload || len(res.Updates) != 0 {
			t.Errorf("%s: poll by %s: %v, want an empty resume", tc.name, b.Cookie, err)
		}
	}
}
