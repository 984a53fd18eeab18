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
// must re-Begin rather than retry its cookie), and a referral result is
// ErrNotContained (a mid-tier replica refusing to supply a sync spec it
// cannot prove containment for — the supervisor diverts to its fallback
// master).
func (e *ResultError) Unwrap() error {
	switch e.Code {
	case proto.ResultESyncRefreshRequired:
		return resync.ErrNoSuchSession
	case proto.ResultReferral:
		return ErrNotContained
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
	r      *bufio.Reader
	nextID int64
	// timeout bounds each network read and write (0 = no deadline).
	timeout time.Duration
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
	return &Client{conn: conn, r: bufio.NewReader(conn), nextID: 1, timeout: timeout}, nil
}

// armWrite and armRead (re-)arm the connection deadline for one I/O
// operation; with no timeout configured any previous deadline is cleared.
// Callers hold c.mu.
func (c *Client) armWrite() { _ = c.conn.SetWriteDeadline(c.deadline()) }

func (c *Client) armRead() { _ = c.conn.SetReadDeadline(c.deadline()) }

func (c *Client) deadline() time.Time {
	if c.timeout > 0 {
		return time.Now().Add(c.timeout)
	}
	return time.Time{}
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

// read returns the next message for the given ID. The deadline is re-armed
// per message, so the timeout bounds the idle gap between responses rather
// than the total length of a streamed result.
func (c *Client) read(id int64) (*proto.Message, error) {
	for {
		c.armRead()
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

// Bind authenticates.
func (c *Client) Bind(name, password string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, err := c.send(&proto.BindRequest{Version: 3, Name: name, Password: password})
	if err != nil {
		return err
	}
	m, err := c.read(id)
	if err != nil {
		return err
	}
	resp, ok := m.Op.(*proto.BindResponse)
	if !ok {
		return fmt.Errorf("ldap bind: unexpected response %T", m.Op)
	}
	if resp.Code != proto.ResultSuccess {
		return &ResultError{Code: resp.Code, Message: resp.Message}
	}
	return nil
}

// Search runs a search and collects the streamed results. A referral result
// code surfaces as a *ResultError carrying the referral URLs together with
// the partial result.
func (c *Client) Search(q query.Query) (*SearchResult, error) {
	return c.SearchWith(q)
}

// SearchWith runs a search with request controls attached (e.g. the
// RFC 2891 server-side sort control).
func (c *Client) SearchWith(q query.Query, controls ...proto.Control) (*SearchResult, error) {
	res, _, err := c.search(q, controls...)
	return res, err
}

// search runs one search exchange, collecting the streamed entries and
// references. done is the closing SearchDone message, whose controls carry
// what the request's controls asked for (e.g. the paging cookie); on an
// error the partial result is returned with it.
func (c *Client) search(q query.Query, controls ...proto.Control) (res *SearchResult, done *proto.Message, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, err := c.send(&proto.SearchRequest{Query: q}, controls...)
	if err != nil {
		return nil, nil, err
	}
	res = &SearchResult{}
	for {
		m, err := c.read(id)
		if err != nil {
			return res, nil, err
		}
		switch op := m.Op.(type) {
		case *proto.SearchEntry:
			res.Entries = append(res.Entries, op.Entry)
		case *proto.SearchReference:
			res.Referrals = append(res.Referrals, op.URLs...)
		case *proto.SearchDone:
			if op.Code != proto.ResultSuccess {
				return res, nil, &ResultError{Code: op.Code, Message: op.Message, Referrals: op.Referrals}
			}
			return res, m, nil
		default:
			return res, nil, fmt.Errorf("ldap search: unexpected response %T", m.Op)
		}
	}
}

// WatchFilters subscribes to the server's admission-filter generation (the
// OIDFiltersWatch control) and blocks until it advances past since (0 =
// whatever generation is current when the watch is established), returning
// the new generation. The wait is deadline-free — the response arrives only
// when the server's filter set actually changes — so use a dedicated
// client; Close from another goroutine cancels the wait. A server that does
// not support the control answers unwillingToPerform immediately.
func (c *Client) WatchFilters(q query.Query, since uint64) (uint64, error) {
	c.mu.Lock()
	id, err := c.send(&proto.SearchRequest{Query: q}, proto.NewFiltersWatchControl(since))
	if err != nil {
		c.mu.Unlock()
		return 0, err
	}
	// Clear the per-op read deadline for the watch's duration and read
	// outside the client lock, so a concurrent Close can cancel the wait.
	_ = c.conn.SetReadDeadline(time.Time{})
	r := c.r
	c.mu.Unlock()
	for {
		m, err := proto.ReadMessage(r)
		if err != nil {
			return 0, err
		}
		if m.ID != id {
			continue
		}
		done, ok := m.Op.(*proto.SearchDone)
		if !ok {
			continue
		}
		if done.Code != proto.ResultSuccess {
			return 0, &ResultError{Code: done.Code, Message: done.Message, Referrals: done.Referrals}
		}
		ctrl, ok := m.Control(proto.OIDFiltersChanged)
		if !ok {
			return 0, fmt.Errorf("filters watch: response missing filters-changed control")
		}
		return proto.ParseFiltersChanged(ctrl)
	}
}

// SearchPaged runs a search with RFC 2696 simple paged results, fetching
// pageSize entries per round trip until the server reports completion.
func (c *Client) SearchPaged(q query.Query, pageSize int) (*SearchResult, error) {
	out := &SearchResult{}
	cookie := ""
	for {
		res, done, next, err := c.searchPage(q, pageSize, cookie)
		if err != nil {
			return out, err
		}
		out.Entries = append(out.Entries, res.Entries...)
		out.Referrals = append(out.Referrals, res.Referrals...)
		if done {
			return out, nil
		}
		cookie = next
	}
}

func (c *Client) searchPage(q query.Query, pageSize int, cookie string) (*SearchResult, bool, string, error) {
	res, done, err := c.search(q, proto.NewPagedControl(int64(pageSize), cookie))
	if err != nil {
		return res, false, "", err
	}
	pc, ok := done.Control(proto.OIDPagedResults)
	if !ok {
		return res, true, "", nil
	}
	_, next, err := proto.ParsePaged(pc)
	if err != nil {
		return res, false, "", err
	}
	return res, next == "", next, nil
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
	c.mu.Lock()
	defer c.mu.Unlock()
	id, err := c.send(&proto.SearchRequest{Query: q}, controls...)
	if err != nil {
		return nil, err
	}
	res := &resync.PollResult{}
	for {
		m, err := c.read(id)
		if err != nil {
			return res, err
		}
		switch op := m.Op.(type) {
		case *proto.SearchEntry:
			u, _, _, err := decodeUpdate(m, op)
			if err != nil {
				return res, err
			}
			res.Updates = append(res.Updates, u)
		case *proto.SearchDone:
			if op.Code != proto.ResultSuccess {
				return res, &ResultError{Code: op.Code, Message: op.Message, Referrals: op.Referrals}
			}
			if dc, ok := m.Control(proto.OIDReSyncDone); ok {
				res.Cookie, res.FullReload, res.CSN, err = proto.ParseReSyncDone(dc)
				if err != nil {
					return res, err
				}
			}
			if rc, ok := m.Control(proto.OIDReSyncResume); ok {
				tok, err := proto.ParseReSyncResume(rc)
				if err != nil {
					return res, err
				}
				res.Resume = &tok
			}
			return res, nil
		default:
			return res, fmt.Errorf("ldap sync: unexpected response %T", m.Op)
		}
	}
}

// End terminates a session.
func (c *Client) End(cookie string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, err := c.send(&proto.SearchRequest{Query: query.Query{Scope: query.ScopeBase}},
		proto.NewReSyncRequestControl(proto.ReSyncModeSyncEnd, cookie))
	if err != nil {
		return err
	}
	m, err := c.read(id)
	if err != nil {
		return err
	}
	if done, ok := m.Op.(*proto.SearchDone); ok && done.Code != proto.ResultSuccess {
		return &ResultError{Code: done.Code, Message: done.Message}
	}
	return nil
}

// decodeUpdate reads one update PDU of a ReSync response, with the cookie and
// CSN its entry-change control carries. An entry PDU without the control is
// an add: the supplier leaves the control off every add that carries nothing
// else, which is every PDU of a content transfer (see Server.streamUpdates).
func decodeUpdate(m *proto.Message, op *proto.SearchEntry) (resync.Update, string, uint64, error) {
	ec := proto.EntryChange{Action: proto.ChangeActionAdd}
	if cc, ok := m.Control(proto.OIDEntryChange); ok {
		var err error
		if ec, err = proto.ParseEntryChange(cc); err != nil {
			return resync.Update{}, "", 0, err
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
			return resync.Update{}, "", 0, fmt.Errorf("ldap sync: move from %q: %w", ec.OldDN, err)
		}
		u.Action, u.Entry, u.Patch, u.OldDN = resync.ActionModify, op.Entry, true, old
	case proto.ChangeActionDelete:
		u.Action = resync.ActionDelete
	case proto.ChangeActionRetain:
		u.Action = resync.ActionRetain
	default:
		return resync.Update{}, "", 0, fmt.Errorf("ldap sync: update PDU with action %v", ec.Action)
	}
	return u, ec.Cookie, ec.CSN, nil
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
	c.mu.Lock()
	defer c.mu.Unlock()
	id, err := c.send(op, proto.NewEdgeWriteControl(opID))
	if err != nil {
		return 0, false, err
	}
	m, err := c.read(id)
	if err != nil {
		return 0, false, err
	}
	r, ok := writeResult(m)
	if !ok {
		return 0, false, fmt.Errorf("ldap edge write: unexpected response %T", m.Op)
	}
	if r.Code != proto.ResultSuccess {
		return 0, false, &ResultError{Code: r.Code, Message: r.Message, Referrals: r.Referrals}
	}
	dc, ok := m.Control(proto.OIDEdgeWriteDone)
	if !ok {
		return 0, false, errors.New("ldap edge write: server accepted the op without an edge-write-done control")
	}
	return proto.ParseEdgeWriteDone(dc)
}

// writeResult extracts the Result from any of the four update responses.
func writeResult(m *proto.Message) (proto.Result, bool) {
	switch r := m.Op.(type) {
	case *proto.AddResponse:
		return r.Result, true
	case *proto.DelResponse:
		return r.Result, true
	case *proto.ModifyResponse:
		return r.Result, true
	case *proto.ModifyDNResponse:
		return r.Result, true
	}
	return proto.Result{}, false
}

// simpleOp sends one update request and maps its response to an error.
func (c *Client) simpleOp(op proto.Op) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, err := c.send(op)
	if err != nil {
		return err
	}
	m, err := c.read(id)
	if err != nil {
		return err
	}
	r, ok := writeResult(m)
	if !ok {
		return fmt.Errorf("ldap: unexpected response %T", m.Op)
	}
	if r.Code != proto.ResultSuccess {
		return &ResultError{Code: r.Code, Message: r.Message, Referrals: r.Referrals}
	}
	return nil
}

// --- Persist mode -------------------------------------------------------------

// StreamUpdate is one pushed update of a persist stream. Cookie is
// non-empty on the final update of each pushed batch: a consumer that has
// applied everything up to and including that update holds the named sync
// point and may adopt the cookie as its resume position. CSN rides with the
// cookie (zero elsewhere): the supplier's commit watermark at that sync
// point, used to retire edge-originated writes once they echo back.
type StreamUpdate struct {
	resync.Update
	Cookie string
	CSN    uint64
}

// PersistSession is a persist-mode synchronization over a dedicated
// connection: initial content and subsequent change batches arrive on
// Updates until Close.
type PersistSession struct {
	Updates <-chan StreamUpdate

	client *Client
	id     int64
	once   sync.Once
	stop   chan struct{}
	done   chan struct{}

	mu  sync.Mutex
	err error
}

// Err reports why the stream ended (nil while it is live or after a clean
// SearchDone). A *ResultError carrying e-syncRefreshRequired means the
// session is stale and the consumer must re-Begin; transport errors mean
// the same cookie is retryable.
func (p *PersistSession) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

func (p *PersistSession) setErr(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// PersistWith opens a dedicated connection through the transport hook dial
// (nil = TCP) and runs a persist-mode sync. The returned session delivers
// every update (initial content first). dialTimeout bounds the dial and the
// initial request write (0 = none); idleTimeout, when positive, bounds the
// gap between streamed messages — a master stalled longer than that ends the
// subscription — and zero leaves the stream without one (persist connections
// legitimately sit quiet between changes).
func PersistWith(dial DialFunc, addr string, q query.Query, cookie string, dialTimeout, idleTimeout time.Duration) (*PersistSession, error) {
	c, err := DialWith(dial, addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	id, err := c.send(&proto.SearchRequest{Query: q},
		proto.NewReSyncRequestControl(proto.ReSyncModePersist, cookie))
	c.mu.Unlock()
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	ch := make(chan StreamUpdate, 64)
	ps := &PersistSession{Updates: ch, client: c, id: id,
		stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(ch)
		defer close(ps.done)
		for {
			var dl time.Time
			if idleTimeout > 0 {
				dl = time.Now().Add(idleTimeout)
			}
			_ = c.conn.SetReadDeadline(dl)
			m, err := proto.ReadMessage(c.r)
			if err != nil {
				ps.setErr(err)
				return
			}
			if m.ID != id {
				continue
			}
			switch op := m.Op.(type) {
			case *proto.SearchEntry:
				u, cookie, csn, err := decodeUpdate(m, op)
				if err != nil {
					ps.setErr(err)
					return
				}
				select {
				case ch <- StreamUpdate{Update: u, Cookie: cookie, CSN: csn}:
				case <-ps.stop:
					return
				}
			case *proto.SearchDone:
				if op.Code != proto.ResultSuccess {
					ps.setErr(&ResultError{Code: op.Code, Message: op.Message})
				}
				return
			}
		}
	}()
	return ps, nil
}

// Close abandons the persistent search and closes the connection.
func (p *PersistSession) Close() {
	p.once.Do(func() {
		close(p.stop)
		p.client.mu.Lock()
		_, _ = p.client.send(&proto.AbandonRequest{MessageID: p.id})
		p.client.mu.Unlock()
		_ = p.client.Close()
	})
	<-p.done
}

// --- Referral chasing ----------------------------------------------------------

// Resolver chases referrals across a set of named servers, reproducing the
// distributed operation processing of Figure 2. Host names in LDAP URLs are
// mapped to TCP addresses via the registry.
type Resolver struct {
	// MaxDepth bounds referral chains (0 = DefaultMaxChase). A cascaded
	// topology makes long chains legitimate (leaf → mid → master), so the
	// bound is configurable; genuine cycles are caught separately and
	// immediately by the visited-set check, whatever the depth limit.
	MaxDepth int

	mu      sync.Mutex
	addrs   map[string]string
	clients map[string]*Client
}

// NewResolver creates a resolver with a host registry.
func NewResolver() *Resolver {
	return &Resolver{addrs: make(map[string]string), clients: make(map[string]*Client)}
}

// Register maps a symbolic host name to a TCP address.
func (r *Resolver) Register(host, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addrs[host] = addr
}

// Close closes all pooled client connections.
func (r *Resolver) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.clients {
		_ = c.Close()
	}
	r.clients = make(map[string]*Client)
}

func (r *Resolver) client(host string) (*Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.clients[host]; ok {
		return c, nil
	}
	addr, ok := r.addrs[host]
	if !ok {
		return nil, fmt.Errorf("ldap resolver: unknown host %q", host)
	}
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	r.clients[host] = c
	return c, nil
}

// RoundTrips sums round trips across all pooled connections.
func (r *Resolver) RoundTrips() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.clients {
		n += c.RoundTrips()
	}
	return n
}

// DefaultMaxChase bounds referral chains when Resolver.MaxDepth is unset.
const DefaultMaxChase = 16

// ErrReferralLoop marks a referral chain that revisited a (server, query)
// pair it had already asked: the servers are referring the operation in a
// cycle (e.g. a replica referring to a master that refers back), so no
// amount of chasing can complete it. The wrapped message names the chain.
var ErrReferralLoop = errors.New("referral loop detected")

// chaseState is the per-operation loop-detection state threaded through
// one SearchChasing call: the (host, query) pairs already visited, and the
// visit order for rendering a useful error.
type chaseState struct {
	visited map[string]bool
	chain   []string
}

// chaseKey identifies one (server, query) step of a referral chain. The
// query is part of the key because subordinate references legitimately
// revisit a host with a different base: only re-asking the same question
// of the same server is a cycle.
func chaseKey(host string, q query.Query) string {
	return host + "\x00" + q.Key()
}

// SearchChasing evaluates the query starting at the named server, following
// superior referrals (name resolution) and subordinate references
// (operation completion) until the result is complete. Chains are bounded
// by MaxDepth and cycles across (server, query) pairs are detected
// eagerly, so two servers referring to each other fail with
// ErrReferralLoop on the first revisit instead of burning the depth
// budget.
func (r *Resolver) SearchChasing(host string, q query.Query) (*SearchResult, error) {
	st := &chaseState{visited: make(map[string]bool)}
	return r.chase(host, q, 0, st)
}

func (r *Resolver) maxDepth() int {
	if r.MaxDepth > 0 {
		return r.MaxDepth
	}
	return DefaultMaxChase
}

func (r *Resolver) chase(host string, q query.Query, depth int, st *chaseState) (*SearchResult, error) {
	if depth > r.maxDepth() {
		return nil, fmt.Errorf("ldap resolver: referral chain exceeds %d hops: %s",
			r.maxDepth(), strings.Join(append(st.chain, host), " -> "))
	}
	key := chaseKey(host, q)
	if st.visited[key] {
		return nil, fmt.Errorf("ldap resolver: %w: %s revisits %s",
			ErrReferralLoop, strings.Join(st.chain, " -> "), host)
	}
	st.visited[key] = true
	st.chain = append(st.chain, host)
	c, err := r.client(host)
	if err != nil {
		return nil, err
	}
	res, err := c.Search(q)
	if err != nil {
		var re *ResultError
		if errors.As(err, &re) && re.Code == proto.ResultReferral && len(re.Referrals) > 0 {
			// Superior referral: resend the same request to the referred
			// server (distributed name resolution).
			nextHost, _, perr := ParseURL(re.Referrals[0])
			if perr != nil {
				return nil, perr
			}
			return r.chase(nextHost, q, depth+1, st)
		}
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
		subRes, err := r.chase(refHost, sub, depth+1, st)
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
