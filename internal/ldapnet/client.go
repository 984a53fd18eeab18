package ldapnet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/resync"
)

// DefaultTimeout bounds dials and each request/response I/O operation of a
// Client unless overridden; it keeps a replica from blocking forever on a
// hung master.
const DefaultTimeout = 30 * time.Second

// ResultError is returned when a server answers with a non-success result.
type ResultError struct {
	Code      proto.ResultCode
	Message   string
	Referrals []string
}

func (e *ResultError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("ldap: %s: %s", e.Code, e.Message)
	}
	return "ldap: " + e.Code.String()
}

// Unwrap maps distinguished result codes back to their typed sentinel, so
// errors.Is works identically against a local engine and over the wire: an
// e-syncRefreshRequired response is resync.ErrNoSuchSession (the consumer
// must re-Begin rather than retry its cookie), a referral result is
// ErrNotContained (a mid-tier replica refusing to supply a sync spec it
// cannot prove containment for — the supervisor diverts to its fallback
// master), and unwillingToPerform is ErrReadOnly (a server that supplies
// nobody: a replica run without a tier refuses every sync and every filters
// watch).
func (e *ResultError) Unwrap() error {
	switch e.Code {
	case proto.ResultESyncRefreshRequired:
		return resync.ErrNoSuchSession
	case proto.ResultReferral:
		return ErrNotContained
	case proto.ResultUnwillingToPerform:
		return ErrReadOnly
	default:
		return nil
	}
}

// IsTransient reports whether err is a transport-level failure (reset,
// timeout, EOF, torn stream) after which the same session cookie may be
// retried on a fresh connection — as opposed to a server result, which
// would just be returned again. Stale-session results in particular are NOT
// transient: the consumer must re-Begin.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var re *ResultError
	return !errors.As(err, &re)
}

// SearchResult collects a search's entries and continuation referrals.
type SearchResult struct {
	Entries   []*entry.Entry
	Referrals []string
}

// Client is a synchronous LDAP client. Methods are safe for concurrent use
// but execute one operation at a time per connection.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	r      *bufio.Reader // respBufSize: a server writes up to that at once
	nextID int64
	// timeout bounds each network read and write (0 = no deadline).
	timeout time.Duration
	// readDeadline arms reads with timeout, lazily (see read).
	readDeadline lazyDeadline
	// RoundTrips counts request/response exchanges with the server; the
	// referral experiments read it.
	roundTrips int
	closed     bool
}

// DialFunc opens the transport connection for a client. Fault-injection
// layers (internal/chaos) and tests substitute their own; nil means plain
// TCP.
type DialFunc func(addr string, timeout time.Duration) (net.Conn, error)

// netDial is the default TCP DialFunc.
func netDial(addr string, timeout time.Duration) (net.Conn, error) {
	if timeout > 0 {
		return net.DialTimeout("tcp", addr, timeout)
	}
	return net.Dial("tcp", addr)
}

// Dial connects to an LDAP server with DefaultTimeout I/O deadlines.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, DefaultTimeout)
}

// DialTimeout connects to an LDAP server; timeout bounds the dial and every
// subsequent read/write of one message (0 disables deadlines).
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	return DialWith(nil, addr, timeout)
}

// DialWith is DialTimeout through an explicit transport hook (nil = TCP).
func DialWith(dial DialFunc, addr string, timeout time.Duration) (*Client, error) {
	if dial == nil {
		dial = netDial
	}
	conn, err := dial(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("ldap dial %s: %w", addr, err)
	}
	return &Client{conn: conn, r: bufio.NewReaderSize(conn, respBufSize), nextID: 1,
		timeout: timeout, readDeadline: lazyDeadline{timeout: timeout}}, nil
}

// armWrite (re-)arms the connection's write deadline for one request; with
// no timeout configured any previous deadline is cleared. Callers hold c.mu.
func (c *Client) armWrite() {
	var dl time.Time
	if c.timeout > 0 {
		dl = time.Now().Add(c.timeout)
	}
	_ = c.conn.SetWriteDeadline(dl)
}

// RoundTrips reports the number of request/response exchanges so far.
func (c *Client) RoundTrips() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roundTrips
}

// Close unbinds and closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.armWrite()
	m := &proto.Message{ID: c.nextID, Op: &proto.UnbindRequest{}}
	_ = m.Write(c.conn)
	return c.conn.Close()
}

// request sends a message and returns its ID.
func (c *Client) send(op proto.Op, controls ...proto.Control) (int64, error) {
	id := c.nextID
	c.nextID++
	m := &proto.Message{ID: id, Op: op, Controls: controls}
	c.armWrite()
	if err := m.Write(c.conn); err != nil {
		return 0, fmt.Errorf("ldap send: %w", err)
	}
	c.roundTrips++
	return id, nil
}

// read returns the next message for the given ID. The read deadline moves by
// the connection writer's lazy rule (lazyDeadline): only once half the
// timeout has passed, not once per message. The timeout therefore bounds a
// stall, not the total length of a streamed result: a server that stops
// sending mid-response for the timeout fails the exchange within the
// timeout of when it stopped, and one that pauses for less than half the
// timeout between messages never does.
func (c *Client) read(id int64) (*proto.Message, error) {
	for {
		if dl, ok := c.readDeadline.renew(); ok {
			_ = c.conn.SetReadDeadline(dl)
		}
		m, err := proto.ReadMessage(c.r)
		if err != nil {
			return nil, err
		}
		if m.ID == id {
			return m, nil
		}
		// Responses to other (abandoned) operations are skipped.
	}
}

// resultOp is an LDAPResult-bodied response: the whole answer to a bind or an
// update, the SearchDone that closes a search or a ReSync exchange.
type resultOp interface {
	proto.Op
	LDAPResult() *proto.Result
}

// resultError is the error a response's result stands for: nil on success,
// else a *ResultError carrying the result's referrals.
func resultError(r *proto.Result) error {
	if r.Code == proto.ResultSuccess {
		return nil
	}
	return &ResultError{Code: r.Code, Message: r.Message, Referrals: r.Referrals}
}

// exchange is the one request path: it sends op with its controls and reads
// that message ID's messages, handing each one before the result-bearing one
// to each (nil when the op is answered by its result alone). It returns the
// closing message, and its result as an error when that is not success.
func (c *Client) exchange(op proto.Op, each func(*proto.Message) error, controls ...proto.Control) (*proto.Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, err := c.send(op, controls...)
	if err != nil {
		return nil, err
	}
	for {
		m, err := c.read(id)
		if err != nil {
			return nil, err
		}
		// An entry, the bulk of a search or a reload, is tested first.
		if _, entry := m.Op.(*proto.SearchEntry); !entry {
			if r, ok := m.Op.(resultOp); ok {
				return m, resultError(r.LDAPResult())
			}
		}
		if each == nil {
			return nil, fmt.Errorf("ldap: unexpected response %T", m.Op)
		}
		if err := each(m); err != nil {
			return nil, err
		}
	}
}

// detach sends op and hands the reading of its answer to the caller, outside
// the client lock, so a concurrent Close can cancel it: the read deadline is
// cleared (the next exchange arms it afresh) and next returns the op's
// messages, each read under a deadline of idle when idle is positive.
func (c *Client) detach(op proto.Op, control proto.Control, idle time.Duration) (next func() (*proto.Message, error), err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, err := c.send(op, control)
	if err != nil {
		return nil, err
	}
	_ = c.conn.SetReadDeadline(time.Time{})
	c.readDeadline.at = time.Time{}
	return func() (*proto.Message, error) {
		for {
			if idle > 0 {
				_ = c.conn.SetReadDeadline(time.Now().Add(idle))
			}
			m, err := proto.ReadMessage(c.r)
			if err != nil || m.ID == id {
				return m, err
			}
		}
	}, nil
}

// Search runs a search with request controls attached (e.g. the RFC 2891
// server-side sort control) and collects the streamed results. A referral
// result code surfaces as a *ResultError carrying the referral URLs together
// with the partial result.
func (c *Client) Search(q query.Query, controls ...proto.Control) (*SearchResult, error) {
	res, _, err := c.search(q, controls...)
	return res, err
}

// search runs one search exchange, collecting the streamed entries and
// references. done is the closing SearchDone message, whose controls carry
// what the request's controls asked for (e.g. the paging cookie); on an
// error the partial result is returned with it.
func (c *Client) search(q query.Query, controls ...proto.Control) (res *SearchResult, done *proto.Message, err error) {
	res = &SearchResult{}
	done, err = c.exchange(&proto.SearchRequest{Query: q}, func(m *proto.Message) error {
		switch op := m.Op.(type) {
		case *proto.SearchEntry:
			res.Entries = append(res.Entries, op.Entry)
		case *proto.SearchReference:
			res.Referrals = append(res.Referrals, op.URLs...)
		default:
			return fmt.Errorf("ldap search: unexpected response %T", m.Op)
		}
		return nil
	}, controls...)
	return res, done, err
}

// WatchFilters blocks until the server can serve q as a sync spec (the
// OIDFiltersWatch control): until it admits q and a link whose spec contains
// q has finished its first exchange. The wait is deadline-free, so use a
// dedicated client; Close from another goroutine cancels it. A server that
// does not support the control answers unwillingToPerform at once.
func (c *Client) WatchFilters(q query.Query) error {
	next, err := c.detach(&proto.SearchRequest{Query: q}, proto.NewFiltersWatchControl(), 0)
	if err != nil {
		return err
	}
	for {
		m, err := next()
		if err != nil {
			return err
		}
		if done, ok := m.Op.(*proto.SearchDone); ok {
			return resultError(done.LDAPResult())
		}
	}
}

// SearchPaged runs a search with RFC 2696 simple paged results and any other
// request controls (e.g. a sort), fetching pageSize entries per round trip
// until the server reports completion.
func (c *Client) SearchPaged(q query.Query, pageSize int, controls ...proto.Control) (*SearchResult, error) {
	out := &SearchResult{}
	cookie := ""
	for {
		res, done, err := c.search(q, append([]proto.Control{proto.NewPagedControl(int64(pageSize), cookie)}, controls...)...)
		out.Entries = append(out.Entries, res.Entries...)
		out.Referrals = append(out.Referrals, res.Referrals...)
		if err != nil {
			return out, err
		}
		pc, ok := done.Control(proto.OIDPagedResults)
		if !ok {
			return out, nil
		}
		if _, cookie, err = proto.ParsePaged(pc); err != nil || cookie == "" {
			return out, err
		}
	}
}

// Sync performs one ReSync exchange: an empty cookie begins a session, a
// non-empty cookie polls it; mode selects poll or retain semantics. The
// result is the supplier engine's own, decoded: CSN is the supplier's commit
// watermark (zero from a supplier that predates the edge-write protocol), and
// a non-nil Resume marks one chunk of a chunked reload, to be continued with
// SyncResume.
func (c *Client) Sync(q query.Query, mode proto.ReSyncMode, cookie string) (*resync.PollResult, error) {
	return c.syncExchange(q, proto.NewReSyncRequestControl(mode, cookie))
}

// Begin starts a session for the content of q. Begin, Poll and End are the
// engine's own names for these exchanges, so a *Client is a replica.Supplier
// exactly as a *resync.Engine is one.
func (c *Client) Begin(q query.Query) (*resync.PollResult, error) {
	return c.Sync(q, proto.ReSyncModePoll, "")
}

// Poll continues the session the cookie names; the server ignores the query
// on a request for an established session.
func (c *Client) Poll(cookie string) (*resync.PollResult, error) {
	return c.Sync(query.Query{Scope: query.ScopeSubtree}, proto.ReSyncModePoll, cookie)
}

// SyncResume continues a chunked reload by presenting a resume token; the
// server responds with the named chunk (or, when it cannot verify the
// token, a restart from chunk zero — FullReload set). The control is
// critical: a supplier that does not understand resumption must refuse
// rather than silently serve a plain search.
func (c *Client) SyncResume(tok proto.ResumeToken) (*resync.PollResult, error) {
	return c.syncExchange(query.Query{Scope: query.ScopeSubtree},
		proto.NewReSyncRequestControl(proto.ReSyncModePoll, ""),
		proto.NewReSyncResumeControl(tok, true))
}

// syncExchange runs one ReSync request/response cycle with the given
// controls.
func (c *Client) syncExchange(q query.Query, controls ...proto.Control) (*resync.PollResult, error) {
	res := &resync.PollResult{}
	done, err := c.exchange(&proto.SearchRequest{Query: q}, func(m *proto.Message) error {
		op, ok := m.Op.(*proto.SearchEntry)
		if !ok {
			return fmt.Errorf("ldap sync: unexpected response %T", m.Op)
		}
		u, _, err := decodeUpdate(m, op)
		if err != nil {
			return err
		}
		res.Updates = append(res.Updates, u)
		return nil
	}, controls...)
	if err != nil {
		return res, err
	}
	return res, syncDone(done, res)
}

// syncDone reads the done control of a successful ReSync exchange's closing
// message into res: the cookie, reload flag and CSN, and the resume token of
// a chunk.
func syncDone(m *proto.Message, res *resync.PollResult) error {
	if dc, ok := m.Control(proto.OIDReSyncDone); ok {
		var err error
		if res.Cookie, res.FullReload, res.CSN, err = proto.ParseReSyncDone(dc); err != nil {
			return err
		}
	}
	if rc, ok := m.Control(proto.OIDReSyncResume); ok {
		tok, err := proto.ParseReSyncResume(rc)
		if err != nil {
			return err
		}
		res.Resume = &tok
	}
	return nil
}

// End terminates a session.
func (c *Client) End(cookie string) error {
	_, err := c.exchange(&proto.SearchRequest{Query: query.Query{Scope: query.ScopeBase}}, nil,
		proto.NewReSyncRequestControl(proto.ReSyncModeSyncEnd, cookie))
	return err
}

// decodeUpdate reads one update PDU of a ReSync response, with its
// entry-change control: on the final PDU of a pushed batch, the sync point it
// names. An entry PDU without the control is an add: the supplier leaves the
// control off every add that carries nothing else, which is every PDU of a
// content transfer (see Server.streamUpdates).
func decodeUpdate(m *proto.Message, op *proto.SearchEntry) (resync.Update, proto.EntryChange, error) {
	ec := proto.EntryChange{Action: proto.ChangeActionAdd}
	if cc, ok := m.Control(proto.OIDEntryChange); ok {
		var err error
		if ec, err = proto.ParseEntryChange(cc); err != nil {
			return resync.Update{}, ec, err
		}
	}
	// The decoded entry is this consumer's alone: it goes into the update
	// as it is, and delete and retain PDUs give just their DN.
	u := resync.Update{DN: op.Entry.DN()}
	switch ec.Action {
	case proto.ChangeActionAdd:
		u.Action, u.Entry = resync.ActionAdd, op.Entry
	case proto.ChangeActionModify:
		u.Action, u.Entry = resync.ActionModify, op.Entry
	case proto.ChangeActionPatch:
		u.Action, u.Entry, u.Patch = resync.ActionModify, op.Entry, true
	case proto.ChangeActionMove:
		old, err := dn.Parse(ec.OldDN)
		if err != nil {
			return resync.Update{}, ec, fmt.Errorf("ldap sync: move from %q: %w", ec.OldDN, err)
		}
		u.Action, u.Entry, u.Patch, u.OldDN = resync.ActionModify, op.Entry, true, old
	case proto.ChangeActionDelete:
		u.Action = resync.ActionDelete
	case proto.ChangeActionRetain:
		u.Action = resync.ActionRetain
	default:
		return resync.Update{}, ec, fmt.Errorf("ldap sync: update PDU with action %v", ec.Action)
	}
	return u, ec, nil
}

// Add inserts an entry.
func (c *Client) Add(e *entry.Entry) error {
	req := &proto.AddRequest{DN: e.DN().String()}
	for _, name := range e.AttributeNames() {
		req.Attrs = append(req.Attrs, proto.Attribute{Type: name, Values: e.Values(name)})
	}
	return c.simpleOp(req)
}

// Delete removes an entry.
func (c *Client) Delete(d dn.DN) error {
	return c.simpleOp(&proto.DelRequest{DN: d.String()})
}

// Modify alters an entry.
func (c *Client) Modify(d dn.DN, changes []proto.ModifyChange) error {
	return c.simpleOp(&proto.ModifyRequest{DN: d.String(), Changes: changes})
}

// ModifyDN renames or moves an entry.
func (c *Client) ModifyDN(old dn.DN, newRDN dn.RDN, newSuperior dn.DN) error {
	return c.simpleOp(&proto.ModifyDNRequest{
		DN:           old.String(),
		NewRDN:       newRDN.String(),
		DeleteOldRDN: true,
		NewSuperior:  newSuperior.String(),
	})
}

// EdgeWrite forwards an edge-originated update operation upstream with the
// edge-write control attached. On success it returns the CSN the sequencer
// assigned (or previously assigned: duplicate reports a dedup hit from an
// earlier forward of the same op id).
func (c *Client) EdgeWrite(op proto.Op, opID string) (csn uint64, duplicate bool, err error) {
	m, err := c.exchange(op, nil, proto.NewEdgeWriteControl(opID))
	if err != nil {
		return 0, false, err
	}
	dc, ok := m.Control(proto.OIDEdgeWriteDone)
	if !ok {
		return 0, false, errors.New("ldap edge write: server accepted the op without an edge-write-done control")
	}
	return proto.ParseEdgeWriteDone(dc)
}

// simpleOp sends one update request and maps its response to an error.
func (c *Client) simpleOp(op proto.Op) error {
	_, err := c.exchange(op, nil)
	return err
}

// --- Persist mode -------------------------------------------------------------

// streamBuffer is how many pushed batches a stream holds for a consumer that
// has not taken them yet; behind it the connection holds the rest, and the
// supplier's next poll of the session coalesces whatever it has not sent.
const streamBuffer = 16

// Stream is a persist-mode synchronization on a client's connection
// (Client.Persist).
type Stream struct {
	// Batches delivers one result per batch: the initial delivery, then each
	// pushed batch, with its updates up to and including the PDU that names
	// its sync point, and the cookie of that point and its CSN. A request
	// the supplier cannot stream from gets the answer a poll gets instead —
	// a full reload, FullReload set, with the resume token of a chunked one
	// — as the last result, after which the client is the caller's again. The
	// channel is closed when the stream ends.
	Batches <-chan *resync.PollResult

	client *Client
	err    error // written before Batches is closed
}

// Err reports, once Batches is closed, why the stream ended: nil after a
// clean SearchDone and after a poll answer. A *ResultError carrying
// e-syncRefreshRequired means the session is stale and the consumer must
// re-Begin; transport errors mean the same cookie is retryable.
func (st *Stream) Err() error { return st.err }

// Persist asks for the session's persist stream on c's own connection: the
// updates since cookie (an empty cookie begins a session with its content),
// then every batch the supplier pushes. The stream holds the connection
// until it ends; Close ends it early by closing the client. idleTimeout,
// when positive, bounds the gap between streamed messages — a supplier quiet
// for longer ends the stream — and zero leaves the stream without one (a
// stream legitimately sits quiet between changes).
func (c *Client) Persist(q query.Query, cookie string, idleTimeout time.Duration) (*Stream, error) {
	next, err := c.detach(&proto.SearchRequest{Query: q},
		proto.NewReSyncRequestControl(proto.ReSyncModePersist, cookie), idleTimeout)
	if err != nil {
		return nil, err
	}
	ch := make(chan *resync.PollResult, streamBuffer)
	st := &Stream{Batches: ch, client: c}
	go func() {
		st.err = st.read(next, cookie, ch)
		close(ch)
	}()
	return st, nil
}

// read is the stream's goroutine: it collects entry PDUs into a batch and
// delivers the batch at the PDU that names its sync point, under the cookie
// of that point of the session the stream was asked for with (cookie), or
// named by its first batch when it was asked for without one. The SearchDone
// that ends the stream drops a batch it cut short, since a consumer must
// never apply part of one; a poll answer is delivered whole and ends the
// stream.
func (st *Stream) read(next func() (*proto.Message, error), cookie string, ch chan<- *resync.PollResult) error {
	session, _, _ := resync.SplitCookie(cookie)
	res := &resync.PollResult{}
	for {
		m, err := next()
		if err != nil {
			return err
		}
		switch op := m.Op.(type) {
		case *proto.SearchEntry:
			u, ec, err := decodeUpdate(m, op)
			if err != nil {
				return err
			}
			res.Updates = append(res.Updates, u)
			if ec.Final {
				if ec.Cookie != "" {
					session, _, _ = resync.SplitCookie(ec.Cookie)
				}
				res.Cookie, res.CSN = resync.CookieString(session, ec.Point), ec.CSN
				ch <- res
				res = &resync.PollResult{}
			}
		case *proto.SearchDone:
			if err := resultError(op.LDAPResult()); err != nil {
				return err
			}
			if err := syncDone(m, res); err != nil || !res.FullReload && res.Resume == nil {
				return err // the stream ended
			}
			_ = st.client.conn.SetReadDeadline(time.Time{})
			ch <- res
			return nil
		}
	}
}

// Close ends the stream by closing the client, and waits for the stream's
// goroutine to finish.
func (st *Stream) Close() {
	_ = st.client.Close()
	for range st.Batches {
	}
}

// --- Referral chasing ----------------------------------------------------------

// Resolver is the one referral follower, for searches and writes alike,
// reproducing the distributed operation processing of Figure 2. A URL's
// host is looked up in the registry and, when not registered, dialed as an
// address.
type Resolver struct {
	// MaxDepth bounds referral chains (0 = DefaultMaxChase). A cascaded
	// topology makes long chains legitimate (leaf → mid → master), so the
	// bound is configurable; genuine cycles are caught separately and
	// immediately by the visited-set check, whatever the depth limit.
	MaxDepth int

	mu      sync.Mutex
	addrs   map[string]string
	clients map[string]*Client
	dropped int // round trips of the pooled clients dropped so far
}

// NewResolver creates a resolver with a host registry.
func NewResolver() *Resolver {
	return &Resolver{addrs: make(map[string]string), clients: make(map[string]*Client)}
}

// Register maps a symbolic host name to a TCP address; the host's pooled
// connection, if any, is dropped.
func (r *Resolver) Register(host, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addrs[host] = addr
	if c, ok := r.clients[host]; ok {
		r.dropLocked(host, c)
	}
}

// Close closes all pooled client connections.
func (r *Resolver) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for host, c := range r.clients {
		r.dropLocked(host, c)
	}
}

// addrLocked is the TCP address of host: its registered one, else the host
// itself. Callers hold r.mu.
func (r *Resolver) addrLocked(host string) string {
	if addr, ok := r.addrs[host]; ok {
		return addr
	}
	return host
}

func (r *Resolver) client(host string) (*Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.clients[host]; ok {
		return c, nil
	}
	c, err := Dial(r.addrLocked(host))
	if err != nil {
		return nil, err
	}
	r.clients[host] = c
	return c, nil
}

// drop closes host's pooled client c after a transport failure, unless it
// was replaced already, so the next request redials.
func (r *Resolver) drop(host string, c *Client) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropLocked(host, c)
}

// dropLocked closes host's pooled client c, unless it was replaced already.
func (r *Resolver) dropLocked(host string, c *Client) {
	if r.clients[host] != c {
		return
	}
	delete(r.clients, host)
	r.dropped += c.RoundTrips()
	_ = c.Close()
}

// RoundTrips sums round trips across all pooled connections, dropped ones
// included.
func (r *Resolver) RoundTrips() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.dropped
	for _, c := range r.clients {
		n += c.RoundTrips()
	}
	return n
}

// DefaultMaxChase bounds referral chains when Resolver.MaxDepth is unset.
const DefaultMaxChase = 16

// ErrReferralLoop marks a referral chain that asked a server a question it
// had already asked it: the servers are referring the operation in a
// cycle (e.g. a replica referring to a master that refers back), so no
// amount of chasing can complete it. The wrapped message names the chain.
var ErrReferralLoop = errors.New("referral loop detected")

// chaseState is the per-operation loop-detection state threaded through
// one chase: the (host, question) pairs already asked, and the visit order
// for rendering a useful error.
type chaseState struct {
	visited map[string]bool
	chain   []string
}

// chaseKey identifies one (server, question) step of a referral chain; a
// search's question is its query's key, a single operation's is empty. The
// question is part of the key because subordinate references legitimately
// revisit a host with a different base: only re-asking the same question
// of the same server is a cycle.
func chaseKey(host, question string) string {
	return host + "\x00" + question
}

func (r *Resolver) maxDepth() int {
	if r.MaxDepth > 0 {
		return r.MaxDepth
	}
	return DefaultMaxChase
}

// follow asks host the question and, while the answer is a referral result,
// asks the server its first URL names (distributed name resolution). Every
// server asked is one hop of st's chain at one more referral followed than
// the last, from depth: a hop past MaxDepth, or a (server, question) pair
// asked before, fails before dialing. It returns the answering hop's depth.
func (r *Resolver) follow(st *chaseState, host, question string, depth int, ask func(host string) error) (int, error) {
	for ; ; depth++ {
		if depth > r.maxDepth() {
			return depth, fmt.Errorf("ldap resolver: referral chain exceeds %d hops: %s",
				r.maxDepth(), strings.Join(append(st.chain, host), " -> "))
		}
		key := chaseKey(host, question)
		if st.visited[key] {
			return depth, fmt.Errorf("ldap resolver: %w: %s revisits %s",
				ErrReferralLoop, strings.Join(st.chain, " -> "), host)
		}
		st.visited[key] = true
		st.chain = append(st.chain, host)
		err := ask(host)
		var re *ResultError
		if !errors.As(err, &re) || re.Code != proto.ResultReferral || len(re.Referrals) == 0 {
			return depth, err
		}
		if host, _, err = ParseURL(re.Referrals[0]); err != nil {
			return depth, err
		}
	}
}

// Chase runs one operation at host, calling do with the address of each
// server to ask in turn: while do returns a referral result, the server its
// first URL names is asked next, under SearchChasing's visited rule and
// MaxDepth bound.
func (r *Resolver) Chase(host string, do func(addr string) error) error {
	_, err := r.follow(&chaseState{visited: make(map[string]bool)}, host, "", 0,
		func(host string) error {
			r.mu.Lock()
			addr := r.addrLocked(host)
			r.mu.Unlock()
			return do(addr)
		})
	return err
}

// SearchChasing evaluates the query starting at the named server, following
// superior referrals (name resolution) and subordinate references
// (operation completion) until the result is complete. Chains are bounded
// by MaxDepth and cycles across (server, query) pairs are detected
// eagerly, so two servers referring to each other fail with
// ErrReferralLoop on the first revisit instead of burning the depth
// budget.
func (r *Resolver) SearchChasing(host string, q query.Query) (*SearchResult, error) {
	return r.search(&chaseState{visited: make(map[string]bool)}, host, q, 0)
}

func (r *Resolver) search(st *chaseState, host string, q query.Query, depth int) (*SearchResult, error) {
	var res *SearchResult
	depth, err := r.follow(st, host, q.Key(), depth, func(host string) error {
		c, err := r.client(host)
		if err != nil {
			return err
		}
		if res, err = c.Search(q); IsTransient(err) {
			r.drop(host, c)
		}
		return err
	})
	if err != nil {
		return res, err
	}
	out := &SearchResult{Entries: res.Entries}
	// Subordinate references: continue the operation with modified bases.
	for _, ref := range res.Referrals {
		refHost, refBase, perr := ParseURL(ref)
		if perr != nil {
			return nil, perr
		}
		sub := q
		if !refBase.IsRoot() {
			sub.Base = refBase
		}
		subRes, err := r.search(st, refHost, sub, depth+1)
		if err != nil {
			return out, err
		}
		out.Entries = append(out.Entries, subRes.Entries...)
		out.Referrals = append(out.Referrals, subRes.Referrals...)
	}
	return out, nil
}

// ParseURL splits a simplified LDAP URL "ldap://host/base-dn" into its host
// and base DN (root DN when absent).
func ParseURL(u string) (host string, base dn.DN, err error) {
	rest, ok := strings.CutPrefix(u, "ldap://")
	if !ok {
		return "", dn.DN{}, fmt.Errorf("ldap url %q: bad scheme", u)
	}
	host, dnPart, _ := strings.Cut(rest, "/")
	if host == "" {
		return "", dn.DN{}, fmt.Errorf("ldap url %q: missing host", u)
	}
	if dnPart == "" {
		return host, dn.DN{}, nil
	}
	base, err = dn.Parse(dnPart)
	if err != nil {
		return "", dn.DN{}, fmt.Errorf("ldap url %q: %w", u, err)
	}
	return host, base, nil
}
