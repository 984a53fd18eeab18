package ldapnet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"sync"

	"filterdir/internal/entry"
	"filterdir/internal/metrics"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/resync"
)

// Server accepts LDAP connections and dispatches them to a Backend.
type Server struct {
	ln      net.Listener
	backend Backend
	// syncStats receives wire-level streaming accounting: the backend's
	// counters when it exposes them, else the server's own.
	syncStats *metrics.SyncCounters

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// Serve starts a server on addr ("127.0.0.1:0" picks a free port).
func Serve(addr string, backend Backend) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ldap server listen: %w", err)
	}
	return ServeListener(ln, backend), nil
}

// ServeListener starts a server on an existing listener; fault-injection
// layers (internal/chaos) and tests wrap the listener before handing it in.
func ServeListener(ln net.Listener, backend Backend) *Server {
	s := &Server{ln: ln, backend: backend, conns: make(map[net.Conn]bool), syncStats: &metrics.SyncCounters{}}
	if src, ok := backend.(SyncCounterSource); ok {
		s.syncStats = src.SyncCounters()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// SyncCounters returns the synchronization counters shared with the
// backend's engine, or the server's own when the backend exposes none.
func (s *Server) SyncCounters() *metrics.SyncCounters { return s.syncStats }

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// ActiveConns reports the number of live client connections — a
// test-visible probe used by the convergence oracle and fault-injection
// tests to observe connection churn.
func (s *Server) ActiveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Close stops the listener, closes all connections and waits for the
// handler goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = true
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	_ = conn.Close()
}

// connState is one connection's writer and its table of open requests:
// those answered later, on a goroutine of their own (Server.answerLater),
// each by the cancel that ends it early. A cancel is held by pointer, so an
// answer that returns removes its own entry, never that of a later request
// under the same ID.
type connState struct {
	mu   sync.Mutex
	open map[int64]*func()
	w    *connWriter
}

// take removes an open request's cancel from the table; whoever takes it
// calls it, so each cancel is called at most once.
func (cs *connState) take(id int64) func() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cancel := cs.open[id]
	if cancel == nil {
		return nil
	}
	delete(cs.open, id)
	return *cancel
}

// cancelAll cancels every open request (connection teardown).
func (cs *connState) cancelAll() {
	cs.mu.Lock()
	open := cs.open
	cs.open = nil
	cs.mu.Unlock()
	for _, cancel := range open {
		(*cancel)()
	}
}

// answerLater answers request id on a goroutine of its own, so the
// connection's read loop stays free to process abandons, with cancel in the
// connection's table until the answer returns: abandon and teardown take it
// from there and call it, which must make answer return. A request that
// reuses the ID of one still open is cancelled at once and not registered,
// since an abandon of that ID could not tell the two apart.
func (s *Server) answerLater(state *connState, id int64, cancel func(), answer func()) {
	state.mu.Lock()
	_, inUse := state.open[id]
	if !inUse {
		state.open[id] = &cancel
	}
	state.mu.Unlock()
	if inUse {
		cancel()
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		answer()
		state.mu.Lock()
		if state.open[id] == &cancel {
			delete(state.open, id)
		}
		state.mu.Unlock()
	}()
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	state := &connState{open: make(map[int64]*func()), w: newConnWriter(conn)}
	defer state.cancelAll()
	r := bufio.NewReader(conn)
	for {
		msg, err := proto.ReadMessage(r)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				// Protocol error: nothing sensible to send; drop.
				_ = err
			}
			return
		}
		// Every PDU a request is answered with goes into one response,
		// written as it fills and once when the request is done.
		out := &response{w: state.w}
		switch op := msg.Op.(type) {
		case *proto.UnbindRequest:
			return
		case *proto.BindRequest:
			s.reply(out, msg.ID, &proto.BindResponse{}, proto.ResultSuccess, "", nil, nil)
		case *proto.AbandonRequest:
			if cancel := state.take(op.MessageID); cancel != nil {
				cancel()
			}
			// Abandon has no response.
		case *proto.SearchRequest:
			s.handleSearch(out, state, msg, op)
		case *proto.AddRequest:
			s.handleWrite(out, msg, &proto.AddResponse{}, func() error { return s.backend.Add(op) })
		case *proto.DelRequest:
			s.handleWrite(out, msg, &proto.DelResponse{}, func() error { return s.backend.Delete(op) })
		case *proto.ModifyRequest:
			s.handleWrite(out, msg, &proto.ModifyResponse{}, func() error { return s.backend.Modify(op) })
		case *proto.ModifyDNRequest:
			s.handleWrite(out, msg, &proto.ModifyDNResponse{}, func() error { return s.backend.ModifyDN(op) })
		default:
			s.reply(out, msg.ID, &proto.SearchDone{}, proto.ResultProtocolError, "unsupported operation", nil, nil)
		}
		_ = out.end()
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// handleWrite dispatches one update operation. A request carrying the
// edge-write control is an edge-originated op forwarded from a replica: it
// routes to the backend's EdgeApplier (CSN assignment plus dedup by op id
// on the master; upstream relay on a mid-tier) and the assigned CSN rides
// back on the response's edge-write-done control. Plain requests go through
// the Backend write methods — which on an edge-writing replica journal and
// forward the op themselves. Either way, errors carrying referral URLs (a
// replica refusing a write it does not track) surface as LDAP referrals the
// client can chase.
func (s *Server) handleWrite(out *response, msg *proto.Message, resp resultOp, apply func() error) {
	if c, ok := msg.Control(proto.OIDEdgeWrite); ok {
		opID, err := proto.ParseEdgeWrite(c)
		if err != nil {
			s.reply(out, msg.ID, resp, proto.ResultProtocolError, err.Error(), nil, nil)
			return
		}
		ea, ok := s.backend.(EdgeApplier)
		if !ok {
			s.reply(out, msg.ID, resp, proto.ResultUnwillingToPerform,
				"edge-write forwarding not supported by this server", nil, nil)
			return
		}
		ch, err := changeFromOp(msg.Op)
		if err != nil {
			s.reply(out, msg.ID, resp, proto.ResultProtocolError, err.Error(), nil, nil)
			return
		}
		csn, dup, err := ea.EdgeApply(ch, opID)
		if err != nil {
			s.reply(out, msg.ID, resp, resultCodeFor(err), errText(err), referralsFor(err), nil)
			return
		}
		s.reply(out, msg.ID, resp, proto.ResultSuccess, "", nil,
			[]proto.Control{proto.NewEdgeWriteDoneControl(csn, dup)})
		return
	}
	err := apply()
	s.reply(out, msg.ID, resp, resultCodeFor(err), errText(err), referralsFor(err), nil)
}

// reply adds a result-bearing PDU to out: the whole answer to most
// requests, the trailing SearchDone of a search or a ReSync exchange.
func (s *Server) reply(out *response, id int64, op resultOp,
	code proto.ResultCode, msg string, referrals []string, controls []proto.Control) {
	*op.LDAPResult() = proto.Result{Code: code, Message: msg, Referrals: referrals}
	_ = s.send(out, &proto.Message{ID: id, Op: op, Controls: controls})
}

// send adds one message to out.
func (s *Server) send(out *response, m *proto.Message) error {
	enc, err := m.Encode()
	if err != nil {
		return err
	}
	return out.put(enc)
}

func (s *Server) handleSearch(out *response, state *connState, msg *proto.Message, op *proto.SearchRequest) {
	if _, ok := msg.Control(proto.OIDFiltersWatch); ok {
		s.handleFiltersWatch(out, state, msg.ID, op.Query)
		return
	}
	if c, ok := msg.Control(proto.OIDReSyncRequest); ok {
		req, err := proto.ParseReSyncRequest(c)
		if err != nil {
			s.reply(out, msg.ID, &proto.SearchDone{}, proto.ResultProtocolError, err.Error(), nil, nil)
			return
		}
		var resume *proto.ResumeToken
		if rc, ok := msg.Control(proto.OIDReSyncResume); ok {
			tok, err := proto.ParseReSyncResume(rc)
			if err != nil {
				s.reply(out, msg.ID, &proto.SearchDone{}, proto.ResultProtocolError, err.Error(), nil, nil)
				return
			}
			resume = &tok
		}
		s.handleReSync(out, state, msg.ID, op, req, resume)
		return
	}

	res, err := s.backend.Search(op.Query)
	if err != nil {
		code := resultCodeFor(err)
		var refs []string
		if res != nil {
			refs = res.Referrals
		}
		s.reply(out, msg.ID, &proto.SearchDone{}, code, errText(err), refs, nil)
		return
	}
	// One pass answers every plain search: the RFC 2891 sort, the size limit,
	// then an RFC 2696 page window, the entries, the references with the last
	// page, and the done message.
	var doneControls []proto.Control
	sorted := false
	if c, ok := msg.Control(proto.OIDSortRequest); ok {
		keys, err := proto.ParseSortKeys(c)
		if err != nil {
			doneControls = append(doneControls, proto.NewSortResponseControl(1))
		} else {
			sortEntries(res.Entries, keys)
			doneControls = append(doneControls, proto.NewSortResponseControl(0))
			sorted = true
		}
	}
	entries, refs := res.Entries, res.Referrals
	if limit := int(op.SizeLimit); limit > 0 && len(entries) > limit {
		entries = entries[:limit]
	}
	if c, ok := msg.Control(proto.OIDPagedResults); ok {
		pageSize, cookie, perr := proto.ParsePaged(c)
		if perr != nil || pageSize <= 0 {
			s.reply(out, msg.ID, &proto.SearchDone{}, proto.ResultProtocolError, "bad paged-results control", nil, nil)
			return
		}
		// A deterministic DN order (unless the client sorted) makes the offset
		// cookie stable across pages.
		if !sorted {
			sort.Slice(entries, func(i, j int) bool {
				return entries[i].DN().Norm() < entries[j].DN().Norm()
			})
		}
		offset := 0
		if cookie != "" {
			n, err := strconv.Atoi(cookie)
			if err != nil || n < 0 || n > len(entries) {
				s.reply(out, msg.ID, &proto.SearchDone{}, proto.ResultProtocolError, "bad paging cookie", nil, nil)
				return
			}
			offset = n
		}
		end := min(offset+int(pageSize), len(entries))
		next := ""
		if end < len(entries) {
			next, refs = strconv.Itoa(end), nil
		}
		doneControls = append(doneControls, proto.NewPagedControl(int64(len(entries)), next))
		entries = entries[offset:end]
	}
	for _, e := range entries {
		if err := s.send(out, &proto.Message{ID: msg.ID, Op: &proto.SearchEntry{Entry: e}}); err != nil {
			return
		}
	}
	for _, ref := range refs {
		if err := s.send(out, &proto.Message{ID: msg.ID, Op: &proto.SearchReference{URLs: []string{ref}}}); err != nil {
			return
		}
	}
	s.reply(out, msg.ID, &proto.SearchDone{}, proto.ResultSuccess, "", nil, doneControls)
}

// sortEntries orders search results by the RFC 2891 sort keys using the
// attributes' ordering rules; entries lacking a key attribute sort last.
func sortEntries(entries []*entry.Entry, keys []proto.SortKey) {
	if len(keys) == 0 {
		return
	}
	sort.SliceStable(entries, func(i, j int) bool {
		for _, k := range keys {
			vi := entries[i].First(k.Attr)
			vj := entries[j].First(k.Attr)
			hi, hj := entries[i].Has(k.Attr), entries[j].Has(k.Attr)
			if hi != hj {
				return hi // present sorts before absent
			}
			if !hi {
				continue
			}
			cmp, ok := entry.CompareOrdered(entry.OrderingFor(k.Attr), vi, vj)
			if !ok || cmp == 0 {
				continue
			}
			if k.Reverse {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
}

// handleFiltersWatch parks a long-poll until the backend can serve q as a
// sync spec, then answers a bare SearchDone, so a diverted leaf learns when
// to come back without polling. The backend says what to wait on, and is
// told for how long the watch waits: the wait is answered later
// (answerLater), re-asking each time the backend's channel closes, and
// abandon or teardown cancel it.
func (s *Server) handleFiltersWatch(out *response, state *connState, id int64, q query.Query) {
	fw, ok := s.backend.(FilterWatcher)
	if !ok {
		s.reply(out, id, &proto.SearchDone{}, proto.ResultUnwillingToPerform,
			"filters watch not supported by this server", nil, nil)
		return
	}
	ready, changed := fw.Ready(q)
	if ready {
		s.reply(out, id, &proto.SearchDone{}, proto.ResultSuccess, "", nil, nil)
		return
	}
	cancel := make(chan struct{})
	release := fw.Park(q)
	s.answerLater(state, id, func() { close(cancel) }, func() {
		defer release()
		for !ready {
			select {
			case <-changed:
			case <-cancel:
				return
			}
			ready, changed = fw.Ready(q)
		}
		late := &response{w: state.w}
		s.reply(late, id, &proto.SearchDone{}, proto.ResultSuccess, "", nil, nil)
		_ = late.end()
	})
}

// handleReSync implements the server side of Section 5.2: (i) a null cookie
// starts a session with a full content transfer, (ii) a cookie resumes and
// sends accumulated updates, (iii) persist mode keeps the connection open
// streaming further changes, (iv) poll mode returns a cookie to resume. A
// resume-token control continues a chunked reload instead (DESIGN.md §14).
func (s *Server) handleReSync(out *response, state *connState, id int64, op *proto.SearchRequest, req proto.ReSyncRequest, resume *proto.ResumeToken) {
	if req.Mode == proto.ReSyncModeSyncEnd {
		err := s.backend.ReSyncEnd(req.Cookie)
		s.reply(out, id, &proto.SearchDone{}, resultCodeFor(err), errText(err), nil, nil)
		return
	}

	var res *resync.PollResult
	var err error
	switch {
	case resume != nil:
		res, err = s.backend.ReSyncResume(*resume)
	case req.Cookie == "":
		res, err = s.backend.ReSyncBegin(op.Query)
	case req.Mode == proto.ReSyncModeRetain:
		res, err = s.backend.ReSyncRetain(req.Cookie)
	default:
		res, err = s.backend.ReSyncPoll(req.Cookie)
	}
	if err != nil {
		s.reply(out, id, &proto.SearchDone{}, resultCodeFor(err), err.Error(), nil, nil)
		return
	}
	// A persist request streams from where the session stands: its initial
	// delivery, the updates since the cookie, is a batch like every pushed
	// one, its cookie on its last entry PDU. A session the supplier cannot
	// stream from — its sync point is past the history, so the answer is a
	// full reload, monolithic or chunk zero — gets the answer a poll gets,
	// which tells the consumer to drop what it holds, and no subscription:
	// the consumer lands the reload and asks for the stream again.
	persist := req.Mode == proto.ReSyncModePersist && !res.FullReload && res.Resume == nil
	session, point, _ := resync.SplitCookie(res.Cookie)
	batch := resync.Batch{Updates: res.Updates, Point: point, CSN: res.CSN, Enc: res.Enc}
	// A stream asked for without a cookie begins a session its consumer
	// cannot name yet: the first batch it is sent names it, in a whole cookie.
	named := req.Cookie != ""
	end := func(b resync.Batch) proto.EntryChange {
		last := pushedEnd(b)
		if !named && len(b.Updates) > 0 {
			last.Cookie, named = resync.CookieString(session, b.Point), true
		}
		return last
	}
	var last proto.EntryChange
	if persist {
		last = end(batch)
	}
	if err := s.streamUpdates(out, id, batch, last); err != nil {
		// Without its cookie the exchange must not look complete; on a dead
		// connection this reply goes nowhere.
		s.reply(out, id, &proto.SearchDone{}, resultCodeFor(err), err.Error(), nil, nil)
		return
	}
	if !persist {
		// A chunk of a resumable reload completes without a cookie, handing
		// the consumer a token for the remainder.
		controls := []proto.Control{proto.NewReSyncDoneControl(res.Cookie, res.FullReload, res.CSN)}
		if res.Resume != nil {
			controls = append(controls, proto.NewReSyncResumeControl(*res.Resume, false))
		}
		s.reply(out, id, &proto.SearchDone{}, proto.ResultSuccess, "", nil, controls)
		return
	}

	// The initial delivery reaches the socket before the stream's first
	// pushed batch, which the stream's goroutine writes.
	if out.flush() != nil {
		return
	}
	sub, err := s.backend.ReSyncPersist(res.Cookie)
	if err != nil {
		s.reply(out, id, &proto.SearchDone{}, resultCodeFor(err), err.Error(), nil, nil)
		return
	}
	// Each pushed batch is written as a response of its own; the stream ends
	// by abandon or connection teardown (sub.Close), by the engine (the
	// session ended, or a reload is due) or by a failed write here, whose
	// stream done then goes nowhere. A
	// clean end names the sync point the last batch reached, in a whole
	// cookie.
	s.answerLater(state, id, sub.Close, func() {
		for {
			batch, ok := sub.Next()
			if !ok {
				break
			}
			if err := s.writeBatch(state.w, id, batch, end(batch)); err != nil {
				sub.Close()
				s.streamDone(state.w, id, "", err)
				return
			}
			point = batch.Point
		}
		s.streamDone(state.w, id, resync.CookieString(session, point), nil)
	})
}

// searchEntryTag supplies only the application tag to the pre-encoded-body
// wrappers; the PDU body comes from the shared memo.
var searchEntryTag = &proto.SearchEntry{}

// updateOp is the wire op of one update: the update's entry for add and
// modify — the complete image, or for a patch or a move just the attributes
// it replaces — and the DN alone for delete and retain.
func updateOp(u resync.Update) *proto.SearchEntry {
	if u.Entry != nil && (u.Action == resync.ActionAdd || u.Action == resync.ActionModify) {
		return &proto.SearchEntry{Entry: u.Entry}
	}
	return &proto.SearchEntry{Entry: entry.New(u.DN)}
}

// changeAction is the wire action of an update.
func changeAction(u resync.Update) (proto.ChangeAction, error) {
	switch u.Action {
	case resync.ActionAdd:
		return proto.ChangeActionAdd, nil
	case resync.ActionModify:
		switch {
		case u.IsMove():
			return proto.ChangeActionMove, nil
		case u.Patch:
			return proto.ChangeActionPatch, nil
		}
		return proto.ChangeActionModify, nil
	case resync.ActionDelete:
		return proto.ChangeActionDelete, nil
	case resync.ActionRetain:
		return proto.ChangeActionRetain, nil
	}
	return 0, fmt.Errorf("ldapnet: update of %s has no wire action", u.DN.String())
}

// streamUpdates puts each update of b into out (response.putTail) as the
// tail of a search entry PDU (proto.EncodeMessageTail) labelled with an
// entry-change control; delete and retain actions carry the DN only, a move
// its old DN on the control. A synchronous exchange puts them into the
// response it answers with, a persist push into one of its own
// (Server.writeBatch). last is what the final PDU's control adds to its
// action: nothing for an exchange, whose done control names the sync point,
// and for a pushed batch the point it reaches (pushedEnd). An add that
// carries nothing else — no sync point, no old DN — travels bare, without the
// control: a consumer reads an entry PDU without one as an add, which is every
// PDU of a content transfer (paper §5.2: the whole content "as add actions").
// An update the wire has no action for ends the exchange with an error:
// skipping it would drop, with the last update, the batch's sync point.
//
// When the batch carries a shared-encoding memo, the tail is BER-encoded
// once per content view and reused across every session fanned the batch —
// a pushed change interval and a full reload alike. A session's messages
// differ from another's only in their message IDs, the final PDU of a
// pushed batch included: it names the sync point, not the session. So the
// whole tail (op TLV, then the entry-change control unless the add is bare)
// is cached, and a hit allocates nothing: the tail is copied once, into the
// response buffer. Only a final PDU that names the session (a stream's first
// batch, asked for without a cookie) or a point of its own
// (resync.SharedEnc.GetFinal) is built for its session.
func (s *Server) streamUpdates(out *response, id int64, b resync.Batch, last proto.EntryChange) error {
	for i, u := range b.Updates {
		u := u
		action, err := changeAction(u)
		if err != nil {
			return err
		}
		ec := proto.EntryChange{Action: action}
		if i == len(b.Updates)-1 {
			ec = last
			ec.Action = action
		}
		// The op and its control are built inside the memo's build
		// functions: on a hit neither is needed.
		encodeTail := func() ([]byte, error) {
			body, err := proto.EncodeOpBody(updateOp(u))
			if err != nil {
				return nil, err
			}
			if u.IsMove() {
				ec.OldDN = u.OldDN.String()
			}
			var control []proto.Control
			if ec != (proto.EntryChange{Action: proto.ChangeActionAdd}) {
				control = []proto.Control{ec.Control()} // else a bare entry is an add
			}
			return proto.EncodeMessageTail(searchEntryTag, body, control), nil
		}
		var tail []byte
		built := true
		switch {
		case b.Enc == nil || ec.Cookie != "":
			tail, err = encodeTail()
		case ec.Final:
			tail, built, err = b.Enc.GetFinal(ec.Point, ec.CSN, encodeTail)
		default:
			tail, built, err = b.Enc.GetTail(i, encodeTail)
		}
		if err != nil {
			return err
		}
		if b.Enc != nil {
			if built {
				s.syncStats.StreamEncodes.Add(1)
			} else {
				s.syncStats.StreamDedupPDUs.Add(1)
			}
		}
		if err := out.putTail(id, tail); err != nil {
			return err
		}
		s.syncStats.StreamedPDUs.Add(1)
	}
	return nil
}

// pushedEnd is what the final PDU of a pushed batch adds to its control: the
// sync point the batch reaches and the master CSN it syncs the consumer to.
func pushedEnd(b resync.Batch) proto.EntryChange {
	return proto.EntryChange{Final: true, Point: b.Point, CSN: b.CSN}
}

// writeBatch writes one batch of updates to w as a response of its own, its
// final PDU ended with last (see streamUpdates): a pushed persist batch. The
// synchronous exchanges put their updates into the response they answer with
// instead.
func (s *Server) writeBatch(w *connWriter, id int64, b resync.Batch, last proto.EntryChange) error {
	out := &response{w: w}
	err := s.streamUpdates(out, id, b, last)
	if endErr := out.end(); err == nil {
		err = endErr
	}
	return err
}

// streamDone ends a persist stream with its SearchDone, carrying err's
// result when it failed.
func (s *Server) streamDone(w *connWriter, id int64, cookie string, err error) {
	out := &response{w: w}
	s.reply(out, id, &proto.SearchDone{}, resultCodeFor(err), errText(err), nil,
		[]proto.Control{proto.NewReSyncDoneControl(cookie, false, 0)})
	_ = out.end()
}
