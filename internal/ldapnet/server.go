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
	"filterdir/internal/resync"
)

// Server accepts LDAP connections and dispatches them to a Backend.
type Server struct {
	ln      net.Listener
	backend Backend
	// sync receives wire-level streaming accounting when the backend
	// exposes counters (nil otherwise).
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
	s := &Server{ln: ln, backend: backend, conns: make(map[net.Conn]bool)}
	if src, ok := backend.(SyncCounterSource); ok {
		s.syncStats = src.SyncCounters()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// SyncCounters returns the synchronization counters shared with the
// backend's engine, or nil when the backend exposes none.
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

// connState tracks per-connection persistent searches and filter-generation
// watches for abandon, plus the connection's write queue.
type connState struct {
	mu       sync.Mutex
	persists map[int64]*resync.Subscription
	watches  map[int64]chan struct{}
	w        *connWriter
}

func (cs *connState) addPersist(id int64, sub *resync.Subscription) {
	cs.mu.Lock()
	cs.persists[id] = sub
	cs.mu.Unlock()
}

func (cs *connState) takePersist(id int64) *resync.Subscription {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	sub := cs.persists[id]
	delete(cs.persists, id)
	return sub
}

// addWatch registers a filter-generation watch; the returned channel is
// closed when the watch is cancelled (abandon or connection teardown).
func (cs *connState) addWatch(id int64) chan struct{} {
	cancel := make(chan struct{})
	cs.mu.Lock()
	cs.watches[id] = cancel
	cs.mu.Unlock()
	return cancel
}

// dropWatch removes a finished watch without cancelling it (the watch
// goroutine calls this on exit). Channel close is left to cancelWatch and
// closeAll, which delete the entry under the same lock — so each cancel
// channel is closed at most once.
func (cs *connState) dropWatch(id int64) {
	cs.mu.Lock()
	delete(cs.watches, id)
	cs.mu.Unlock()
}

// cancelWatch cancels a pending watch, if any (abandon).
func (cs *connState) cancelWatch(id int64) {
	cs.mu.Lock()
	cancel := cs.watches[id]
	delete(cs.watches, id)
	cs.mu.Unlock()
	if cancel != nil {
		close(cancel)
	}
}

func (cs *connState) closeAll() {
	cs.mu.Lock()
	subs := make([]*resync.Subscription, 0, len(cs.persists))
	for _, sub := range cs.persists {
		subs = append(subs, sub)
	}
	cs.persists = make(map[int64]*resync.Subscription)
	cancels := make([]chan struct{}, 0, len(cs.watches))
	for _, cancel := range cs.watches {
		cancels = append(cancels, cancel)
	}
	cs.watches = make(map[int64]chan struct{})
	cs.mu.Unlock()
	for _, sub := range subs {
		sub.Close()
	}
	for _, cancel := range cancels {
		close(cancel)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	state := &connState{
		persists: make(map[int64]*resync.Subscription),
		watches:  make(map[int64]chan struct{}),
		w:        newConnWriter(conn, s.syncStats),
	}
	defer state.w.close()
	defer state.closeAll()
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
		switch op := msg.Op.(type) {
		case *proto.UnbindRequest:
			return
		case *proto.BindRequest:
			s.reply(state, conn, msg.ID, &proto.BindResponse{}, proto.ResultSuccess, "", nil, nil)
		case *proto.AbandonRequest:
			if sub := state.takePersist(op.MessageID); sub != nil {
				sub.Close()
			}
			state.cancelWatch(op.MessageID)
			// Abandon has no response.
		case *proto.SearchRequest:
			s.handleSearch(state, conn, msg, op)
		case *proto.AddRequest:
			s.handleWrite(state, conn, msg, &proto.AddResponse{}, func() error { return s.backend.Add(op) })
		case *proto.DelRequest:
			s.handleWrite(state, conn, msg, &proto.DelResponse{}, func() error { return s.backend.Delete(op) })
		case *proto.ModifyRequest:
			s.handleWrite(state, conn, msg, &proto.ModifyResponse{}, func() error { return s.backend.Modify(op) })
		case *proto.ModifyDNRequest:
			s.handleWrite(state, conn, msg, &proto.ModifyDNResponse{}, func() error { return s.backend.ModifyDN(op) })
		default:
			s.reply(state, conn, msg.ID, &proto.SearchDone{}, proto.ResultProtocolError, "unsupported operation", nil, nil)
		}
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
func (s *Server) handleWrite(state *connState, conn net.Conn, msg *proto.Message, resp proto.Op, apply func() error) {
	if c, ok := msg.Control(proto.OIDEdgeWrite); ok {
		opID, err := proto.ParseEdgeWrite(c)
		if err != nil {
			s.reply(state, conn, msg.ID, resp, proto.ResultProtocolError, err.Error(), nil, nil)
			return
		}
		ea, ok := s.backend.(EdgeApplier)
		if !ok {
			s.reply(state, conn, msg.ID, resp, proto.ResultUnwillingToPerform,
				"edge-write forwarding not supported by this server", nil, nil)
			return
		}
		ch, err := changeFromOp(msg.Op)
		if err != nil {
			s.reply(state, conn, msg.ID, resp, proto.ResultProtocolError, err.Error(), nil, nil)
			return
		}
		csn, dup, err := ea.EdgeApply(ch, opID)
		if err != nil {
			s.reply(state, conn, msg.ID, resp, resultCodeFor(err), errText(err), referralsFor(err), nil)
			return
		}
		s.reply(state, conn, msg.ID, resp, proto.ResultSuccess, "", nil,
			[]proto.Control{proto.NewEdgeWriteDoneControl(csn, dup)})
		return
	}
	err := apply()
	s.reply(state, conn, msg.ID, resp, resultCodeFor(err), errText(err), referralsFor(err), nil)
}

// reply sends a single result-bearing response.
func (s *Server) reply(state *connState, conn net.Conn, id int64, op proto.Op,
	code proto.ResultCode, msg string, referrals []string, controls []proto.Control) {
	setResult(op, code, msg, referrals)
	m := &proto.Message{ID: id, Op: op, Controls: controls}
	if enc, err := m.Encode(); err == nil {
		_ = state.w.writeSync(enc)
	}
}

// setResult injects the LDAPResult into a response op.
func setResult(op proto.Op, code proto.ResultCode, msg string, referrals []string) {
	r := proto.Result{Code: code, Message: msg, Referrals: referrals}
	switch t := op.(type) {
	case *proto.BindResponse:
		t.Result = r
	case *proto.SearchDone:
		t.Result = r
	case *proto.AddResponse:
		t.Result = r
	case *proto.DelResponse:
		t.Result = r
	case *proto.ModifyResponse:
		t.Result = r
	case *proto.ModifyDNResponse:
		t.Result = r
	}
}

func (s *Server) send(state *connState, conn net.Conn, m *proto.Message) error {
	enc, err := m.Encode()
	if err != nil {
		return err
	}
	return state.w.writeSync(enc)
}

func (s *Server) handleSearch(state *connState, conn net.Conn, msg *proto.Message, op *proto.SearchRequest) {
	if c, ok := msg.Control(proto.OIDFiltersWatch); ok {
		s.handleFiltersWatch(state, conn, msg.ID, op, c)
		return
	}
	if c, ok := msg.Control(proto.OIDReSyncRequest); ok {
		req, err := proto.ParseReSyncRequest(c)
		if err != nil {
			s.reply(state, conn, msg.ID, &proto.SearchDone{}, proto.ResultProtocolError, err.Error(), nil, nil)
			return
		}
		var resume *proto.ResumeToken
		if rc, ok := msg.Control(proto.OIDReSyncResume); ok {
			tok, err := proto.ParseReSyncResume(rc)
			if err != nil {
				s.reply(state, conn, msg.ID, &proto.SearchDone{}, proto.ResultProtocolError, err.Error(), nil, nil)
				return
			}
			resume = &tok
		}
		s.handleReSync(state, conn, msg.ID, op, req, resume)
		return
	}

	res, err := s.backend.Search(op.Query)
	if err != nil {
		code := resultCodeFor(err)
		var refs []string
		if res != nil {
			refs = res.Referrals
		}
		s.reply(state, conn, msg.ID, &proto.SearchDone{}, code, errText(err), refs, nil)
		return
	}
	// RFC 2891 server-side sorting, applied before streaming (and before
	// paging, per the RFC's required control ordering).
	var doneControls []proto.Control
	if c, ok := msg.Control(proto.OIDSortRequest); ok {
		keys, err := proto.ParseSortKeys(c)
		if err != nil {
			doneControls = append(doneControls, proto.NewSortResponseControl(1))
		} else {
			sortEntries(res.Entries, keys)
			doneControls = append(doneControls, proto.NewSortResponseControl(0))
		}
	}
	// RFC 2696 simple paged results: a deterministic DN order (unless the
	// client sorted) makes the offset cookie stable across pages.
	if c, ok := msg.Control(proto.OIDPagedResults); ok {
		pageSize, cookie, perr := proto.ParsePaged(c)
		if perr != nil || pageSize <= 0 {
			s.reply(state, conn, msg.ID, &proto.SearchDone{}, proto.ResultProtocolError, "bad paged-results control", nil, nil)
			return
		}
		if _, sorted := msg.Control(proto.OIDSortRequest); !sorted {
			sort.Slice(res.Entries, func(i, j int) bool {
				return res.Entries[i].DN().Norm() < res.Entries[j].DN().Norm()
			})
		}
		offset := 0
		if cookie != "" {
			n, err := strconv.Atoi(cookie)
			if err != nil || n < 0 || n > len(res.Entries) {
				s.reply(state, conn, msg.ID, &proto.SearchDone{}, proto.ResultProtocolError, "bad paging cookie", nil, nil)
				return
			}
			offset = n
		}
		end := offset + int(pageSize)
		if end > len(res.Entries) {
			end = len(res.Entries)
		}
		for _, e := range res.Entries[offset:end] {
			if err := s.send(state, conn, &proto.Message{ID: msg.ID, Op: &proto.SearchEntry{Entry: e}}); err != nil {
				return
			}
		}
		next := ""
		if end < len(res.Entries) {
			next = strconv.Itoa(end)
		}
		doneControls = append(doneControls, proto.NewPagedControl(int64(len(res.Entries)), next))
		s.reply(state, conn, msg.ID, &proto.SearchDone{}, proto.ResultSuccess, "", nil, doneControls)
		return
	}
	limit := int(op.SizeLimit)
	for i, e := range res.Entries {
		if limit > 0 && i >= limit {
			break
		}
		if err := s.send(state, conn, &proto.Message{ID: msg.ID, Op: &proto.SearchEntry{Entry: e}}); err != nil {
			return
		}
	}
	for _, ref := range res.Referrals {
		if err := s.send(state, conn, &proto.Message{ID: msg.ID, Op: &proto.SearchReference{URLs: []string{ref}}}); err != nil {
			return
		}
	}
	s.reply(state, conn, msg.ID, &proto.SearchDone{}, proto.ResultSuccess, "", nil, doneControls)
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

// handleFiltersWatch parks a long-poll subscription against the backend's
// admission-filter generation. The response — a bare SearchDone carrying the
// filters-changed control — is deferred until the generation advances past
// the client's `since` (0 = the generation current when the watch lands), so
// a diverted leaf learns the tier widened without polling. The wait runs in
// its own goroutine: the connection's read loop stays free to process
// abandons, and teardown cancels via connState.closeAll.
func (s *Server) handleFiltersWatch(state *connState, conn net.Conn, id int64, op *proto.SearchRequest, c proto.Control) {
	fw, ok := s.backend.(FilterWatcher)
	if !ok {
		s.reply(state, conn, id, &proto.SearchDone{}, proto.ResultUnwillingToPerform,
			"filters watch not supported by this server", nil, nil)
		return
	}
	since, err := proto.ParseFiltersWatch(c)
	if err != nil {
		s.reply(state, conn, id, &proto.SearchDone{}, proto.ResultProtocolError, err.Error(), nil, nil)
		return
	}
	gen, ch := fw.FilterGeneration()
	if since == 0 {
		since = gen
		// Fast path: if the current filter set already admits the watcher's
		// spec, the widening it is waiting for has already happened — answer
		// now instead of parking for a bump that may never come. gen and ch
		// were read before this check, so a widening that races it closes ch
		// and wakes the parked goroutine below.
		if fw.Admit(op.Query) == nil {
			s.reply(state, conn, id, &proto.SearchDone{}, proto.ResultSuccess, "", nil,
				[]proto.Control{proto.NewFiltersChangedControl(gen)})
			return
		}
	}
	cancel := state.addWatch(id)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer state.dropWatch(id)
		for gen <= since {
			select {
			case <-ch:
			case <-cancel:
				return
			}
			gen, ch = fw.FilterGeneration()
		}
		s.reply(state, conn, id, &proto.SearchDone{}, proto.ResultSuccess, "", nil,
			[]proto.Control{proto.NewFiltersChangedControl(gen)})
	}()
}

// handleReSync implements the server side of Section 5.2: (i) a null cookie
// starts a session with a full content transfer, (ii) a cookie resumes and
// sends accumulated updates, (iii) persist mode keeps the connection open
// streaming further changes, (iv) poll mode returns a cookie to resume. A
// resume-token control continues a chunked reload instead (DESIGN.md §14).
func (s *Server) handleReSync(state *connState, conn net.Conn, id int64, op *proto.SearchRequest, req proto.ReSyncRequest, resume *proto.ResumeToken) {
	if req.Mode == proto.ReSyncModeSyncEnd {
		err := s.backend.ReSyncEnd(req.Cookie)
		s.reply(state, conn, id, &proto.SearchDone{}, resultCodeFor(err), errText(err), nil, nil)
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
		s.reply(state, conn, id, &proto.SearchDone{}, resultCodeFor(err), err.Error(), nil, nil)
		return
	}
	// In persist mode the done control only arrives at stream end, so each
	// batch — including this initial delivery — carries its sync-point
	// cookie on its last entry PDU instead.
	initialCookie := ""
	if req.Mode == proto.ReSyncModePersist {
		initialCookie = res.Cookie
	}
	if err := s.streamUpdates(state, conn, id, res.Updates, initialCookie, res.CSN, res.Enc, false); err != nil {
		// Without its cookie the exchange must not look complete; on a dead
		// connection this reply goes nowhere.
		s.reply(state, conn, id, &proto.SearchDone{}, resultCodeFor(err), err.Error(), nil, nil)
		return
	}

	if res.Resume != nil {
		// One chunk of a resumable reload: the exchange completes without a
		// cookie, handing the consumer a token for the remainder. A
		// persist-mode consumer drains the chunks the same way and
		// re-subscribes with the completion cookie.
		s.reply(state, conn, id, &proto.SearchDone{}, proto.ResultSuccess, "", nil,
			[]proto.Control{
				proto.NewReSyncDoneControl("", res.FullReload, res.CSN),
				proto.NewReSyncResumeControl(*res.Resume, false),
			})
		return
	}

	if req.Mode == proto.ReSyncModePersist {
		sub, err := s.backend.ReSyncPersist(res.Cookie)
		if err != nil {
			s.reply(state, conn, id, &proto.SearchDone{}, resultCodeFor(err), err.Error(), nil, nil)
			return
		}
		state.addPersist(id, sub)
		// Stream in a separate goroutine so the connection's read loop keeps
		// processing abandon and unbind requests. Pushed batches go through
		// the connection's bounded write queue; the subscription ends via
		// abandon (takePersist), connection teardown (closeAll), engine-side
		// slow-consumer demotion (channel close) or a write failure here.
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for batch := range sub.Updates {
				if err := s.streamUpdates(state, conn, id, batch.Updates, batch.Cookie, batch.CSN, batch.Enc, true); err != nil {
					sub.Close()
					if !errors.Is(err, errSlowConsumer) { // else the connection is gone
						s.streamDone(state, conn, id, "", err)
					}
					return
				}
			}
			// The done must trail the queued batch PDUs of this stream, so
			// it rides the same queue.
			s.streamDone(state, conn, id, res.Cookie, nil)
		}()
		return
	}

	s.reply(state, conn, id, &proto.SearchDone{}, proto.ResultSuccess, "",
		nil, []proto.Control{proto.NewReSyncDoneControl(res.Cookie, res.FullReload, res.CSN)})
}

// errSlowConsumer tears down a persist stream whose connection write queue
// stayed full past the enqueue deadline.
var errSlowConsumer = errors.New("ldapnet: persist consumer too slow, write queue full")

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

// streamUpdates sends each update as a search entry PDU labelled with an
// entry-change control; delete and retain actions carry the DN only, a move
// its old DN on the control. A non-empty batchCookie is attached, with
// batchCSN, to the final PDU so persist-mode consumers learn the sync point
// each pushed batch reaches. An add that carries nothing else — no cookie, no
// CSN, no old DN — travels bare, without the control: a consumer reads an
// entry PDU without one as an add, which is every PDU of a content transfer
// (paper §5.2: the whole content "as add actions"). An update the wire has no
// action for ends the exchange with an error: skipping it would drop, with
// the last update, the batch's cookie.
//
// When the batch carries a shared-encoding memo, the PDU is BER-encoded
// once per content view and reused across every session fanned the batch —
// a pushed change interval and a full reload alike: for all but a
// cookie-bearing final update the message differs between sessions only in
// its message ID, so the whole tail (op TLV, then the entry-change control
// unless the add is bare) is cached and a hit costs one allocation, the
// envelope around it; the final update of a persist batch carries the
// per-session cookie, so its control is rebuilt around the cached PDU body.
// Queued mode routes the PDUs through the connection's bounded write queue
// (persist pushes); otherwise they are written synchronously.
func (s *Server) streamUpdates(state *connState, conn net.Conn, id int64, updates []resync.Update, batchCookie string, batchCSN uint64, enc *resync.SharedEnc, queued bool) error {
	for i, u := range updates {
		u := u
		action, err := changeAction(u)
		if err != nil {
			return err
		}
		ec := proto.EntryChange{Action: action}
		if i == len(updates)-1 && batchCookie != "" {
			ec.Cookie, ec.CSN = batchCookie, batchCSN
		}
		control := func() []proto.Control {
			if u.IsMove() {
				ec.OldDN = u.OldDN.String()
			}
			if ec == (proto.EntryChange{Action: proto.ChangeActionAdd}) {
				return nil // a bare entry is an add
			}
			return []proto.Control{ec.Control()}
		}
		// The op and its control are built inside the memo's build
		// functions: on a hit neither is needed.
		var msgBytes []byte
		var built bool
		switch {
		case enc == nil:
			msgBytes, err = (&proto.Message{ID: id, Op: updateOp(u),
				Controls: control()}).Encode()
		case ec.Cookie == "":
			// Session-independent message: share the whole tail and stamp
			// only the message ID.
			var tail []byte
			tail, built, err = enc.GetTail(i, func() ([]byte, error) {
				body, berr := proto.EncodeOpBody(updateOp(u))
				if berr != nil {
					return nil, berr
				}
				return proto.EncodeMessageTail(searchEntryTag, body, control()), nil
			})
			if err == nil {
				msgBytes = proto.EncodeWithTail(id, tail)
			}
		default:
			// The per-session cookie control forces a per-session tail;
			// the PDU body is still shared.
			var body []byte
			body, built, err = enc.Get(i, func() ([]byte, error) { return proto.EncodeOpBody(updateOp(u)) })
			if err == nil {
				msgBytes = proto.EncodeWithOpBody(id, searchEntryTag, body, control())
			}
		}
		if err != nil {
			return err
		}
		if enc != nil && s.syncStats != nil {
			if built {
				s.syncStats.StreamEncodes.Add(1)
			} else {
				s.syncStats.StreamDedupPDUs.Add(1)
			}
		}
		if queued {
			if !state.w.enqueue(msgBytes) {
				if s.syncStats != nil {
					s.syncStats.StreamQueueDrops.Add(1)
				}
				s.dropConn(conn)
				return errSlowConsumer
			}
		} else if err := state.w.writeSync(msgBytes); err != nil {
			return err
		}
		if s.syncStats != nil {
			s.syncStats.StreamedPDUs.Add(1)
		}
	}
	return nil
}

// streamDone ends a persist stream with its SearchDone — carrying err's
// result when it failed — routed through the write queue so it trails the
// stream's queued PDUs.
func (s *Server) streamDone(state *connState, conn net.Conn, id int64, cookie string, err error) {
	op := &proto.SearchDone{}
	setResult(op, resultCodeFor(err), errText(err), nil)
	m := &proto.Message{ID: id, Op: op,
		Controls: []proto.Control{proto.NewReSyncDoneControl(cookie, false, 0)}}
	b, err := m.Encode()
	if err != nil {
		return
	}
	if !state.w.enqueue(b) {
		s.dropConn(conn)
	}
}
