package ldapnet

import (
	"errors"
	"fmt"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/edgewrite"
	"filterdir/internal/proto"
)

// EdgeForwarder implements edgewrite.Forwarder over the LDAP client: each
// accepted edge write is re-encoded as its update request and sent to the
// upstream server with the edge-write control attached. Transient transport
// failures are retried on a fresh connection with backoff; a referral from
// the upstream (a mid-tier that does not accept forwards) diverts the op to
// the fallback address; a definitive server verdict is wrapped in
// edgewrite.PermanentError so the writer aborts the op instead of replaying
// it forever. Safe for concurrent use.
type EdgeForwarder struct {
	// Addr is the primary upstream (the replica's supplier).
	Addr string
	// FallbackAddr, when set, receives the op after a referral or after the
	// primary's retry budget is exhausted — normally the master.
	FallbackAddr string

	pool *Resolver // a connection per address: it dials a host it has not registered as an address
}

// Retry policy: a transient failure earns forwardRetries extra attempts,
// each on a freshly dialed connection after forwardBackoff.
const (
	forwardRetries = 2
	forwardBackoff = 50 * time.Millisecond
)

// NewEdgeForwarder creates a forwarder to the given upstream address.
func NewEdgeForwarder(addr string) *EdgeForwarder {
	return &EdgeForwarder{Addr: addr, pool: NewResolver()}
}

var _ edgewrite.Forwarder = (*EdgeForwarder)(nil)

// Forward implements edgewrite.Forwarder.
func (f *EdgeForwarder) Forward(c dit.Change, opID string) (uint64, bool, error) {
	op, err := opFromChange(c)
	if err != nil {
		return 0, false, &edgewrite.PermanentError{Err: err}
	}
	csn, dup, err := f.forwardTo(f.Addr, op, opID)
	if err == nil {
		return csn, dup, nil
	}
	if f.FallbackAddr != "" && f.FallbackAddr != f.Addr && diverts(err) {
		return f.forwardTo(f.FallbackAddr, op, opID)
	}
	return 0, false, err
}

// diverts reports whether a primary-upstream failure should send the op to
// the fallback: a referral (the upstream refuses to carry forwards — e.g. a
// containment miss at a mid-tier) or an exhausted transient-retry budget.
// Other definitive verdicts (already exists, no such object…) would repeat
// at the master, so they are returned as-is.
func diverts(err error) bool {
	if IsTransient(err) {
		return true
	}
	var re *ResultError
	return errors.As(err, &re) && re.Code == proto.ResultReferral
}

// forwardTo runs the exchange against one address with the retry policy.
func (f *EdgeForwarder) forwardTo(addr string, op proto.Op, opID string) (uint64, bool, error) {
	var lastErr error
	for i := 0; i <= forwardRetries; i++ {
		if i > 0 {
			time.Sleep(forwardBackoff)
		}
		cl, err := f.pool.client(addr)
		if err != nil {
			lastErr = err
			continue
		}
		csn, dup, err := cl.EdgeWrite(op, opID)
		if err == nil {
			return csn, dup, nil
		}
		if !IsTransient(err) {
			var re *ResultError
			if errors.As(err, &re) && (re.Code == proto.ResultReferral || re.Code == proto.ResultBusy) {
				// Not a verdict on the op itself: referral diverts, busy is
				// retryable later — keep the op pending.
				return 0, false, err
			}
			return 0, false, &edgewrite.PermanentError{Err: err}
		}
		f.pool.drop(addr, cl)
		lastErr = err
	}
	return 0, false, lastErr
}

// Close closes all pooled connections.
func (f *EdgeForwarder) Close() { f.pool.Close() }

// opFromChange re-encodes a journal change as its wire update request — the
// inverse of changeFromOp, used to forward WAL-recovered ops whose original
// PDU is gone.
func opFromChange(c dit.Change) (proto.Op, error) {
	switch c.Type {
	case dit.ChangeAdd:
		if c.After == nil {
			return nil, errors.New("add change without entry")
		}
		req := &proto.AddRequest{DN: c.After.DN().String()}
		for _, name := range c.After.AttributeNames() {
			req.Attrs = append(req.Attrs, proto.Attribute{Type: name, Values: c.After.Values(name)})
		}
		return req, nil
	case dit.ChangeDelete:
		return &proto.DelRequest{DN: c.DN.String()}, nil
	case dit.ChangeModify:
		req := &proto.ModifyRequest{DN: c.DN.String()}
		for _, m := range c.Mods {
			var op int64
			switch m.Op {
			case dit.ModAdd:
				op = proto.ModifyOpAdd
			case dit.ModDelete:
				op = proto.ModifyOpDelete
			case dit.ModReplace:
				op = proto.ModifyOpReplace
			default:
				return nil, fmt.Errorf("unknown mod op %v", m.Op)
			}
			req.Changes = append(req.Changes, proto.ModifyChange{
				Op: op, Attr: proto.Attribute{Type: m.Attr, Values: m.Values}})
		}
		return req, nil
	case dit.ChangeModifyDN:
		leaf, ok := c.NewDN.Leaf()
		if !ok {
			return nil, errors.New("modifyDN change with empty new DN")
		}
		req := &proto.ModifyDNRequest{DN: c.DN.String(), NewRDN: leaf.String(), DeleteOldRDN: true}
		if p, ok := c.NewDN.Parent(); ok {
			req.NewSuperior = p.String()
		}
		return req, nil
	default:
		return nil, fmt.Errorf("unknown change type %v", c.Type)
	}
}
