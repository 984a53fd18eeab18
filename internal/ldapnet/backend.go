// Package ldapnet runs the LDAP message layer over TCP: a server serving a
// DIT partition (with ReSync protocol support), and a client with referral
// chasing and round-trip accounting — enough to reproduce the distributed
// operation processing of Figure 2 and to synchronize replicas over the
// wire.
package ldapnet

import (
	"errors"
	"fmt"
	"sync"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/edgewrite"
	"filterdir/internal/metrics"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/resync"
)

// parseDN parses a wire DN string.
func parseDN(s string) (dn.DN, error) { return dn.Parse(s) }

// Backend is the server-side service interface.
type Backend interface {
	// Bind authenticates a connection.
	Bind(name, password string) proto.ResultCode
	// Search evaluates a search, returning entries and referrals.
	Search(q query.Query) (*dit.Result, error)
	// ReSyncBegin starts a synchronization session.
	ReSyncBegin(q query.Query) (*resync.PollResult, error)
	// ReSyncPoll continues a session.
	ReSyncPoll(cookie string) (*resync.PollResult, error)
	// ReSyncResume continues a chunked reload from a resume token.
	ReSyncResume(tok proto.ResumeToken) (*resync.PollResult, error)
	// ReSyncRetain runs the incomplete-history mode (equation 3).
	ReSyncRetain(cookie string) (*resync.PollResult, error)
	// ReSyncPersist subscribes to changes after the given cookie.
	ReSyncPersist(cookie string) (*resync.Subscription, error)
	// ReSyncEnd terminates a session.
	ReSyncEnd(cookie string) error
	// Add, Delete, Modify and ModifyDN apply updates.
	Add(e *proto.AddRequest) error
	Delete(d *proto.DelRequest) error
	Modify(m *proto.ModifyRequest) error
	ModifyDN(m *proto.ModifyDNRequest) error
}

// SyncCounterSource is implemented by backends that expose synchronization
// counters; the server then adds its wire-level streaming accounting
// (streamed PDUs, including persist-mode pushes) to the same counters.
type SyncCounterSource interface {
	SyncCounters() *metrics.SyncCounters
}

// EdgeApplier is implemented by backends that can commit edge-originated
// writes forwarded from replicas: the master (assigning the CSN and
// deduplicating replays by op id) and cascade mid-tiers (relaying the op
// upstream unchanged). The server routes update requests carrying the
// edge-write control here.
type EdgeApplier interface {
	EdgeApply(c dit.Change, opID string) (csn uint64, duplicate bool, err error)
}

// ReferralError wraps a write error with referral URLs: the replica does
// not accept the op and the client should retry it at the named server.
type ReferralError struct {
	URLs []string
	Err  error
}

func (e *ReferralError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying cause to errors.Is.
func (e *ReferralError) Unwrap() error { return e.Err }

// referralsFor extracts referral URLs from a write error.
func referralsFor(err error) []string {
	var re *ReferralError
	if errors.As(err, &re) {
		return re.URLs
	}
	return nil
}

// StoreBackend serves a dit.Store with a resync.Engine (the embedded
// engineSync, ungated), optionally guarded by a single bind credential (empty
// means anonymous access).
type StoreBackend struct {
	engineSync
	Store *dit.Store
	// BindDN / BindPassword guard non-anonymous access when set.
	BindDN       string
	BindPassword string
	// Writes counts the sequencer side of the edge-write protocol.
	Writes *metrics.WriteCounters

	// edgeSeen dedups replayed edge-write forwards by op id (bounded FIFO):
	// a replica whose commit response was lost replays the op after its WAL
	// recovery, and the recorded CSN is returned instead of applying twice.
	edgeMu    sync.Mutex
	edgeSeen  map[string]uint64
	edgeOrder []string
}

var (
	_ Backend     = (*StoreBackend)(nil)
	_ EdgeApplier = (*StoreBackend)(nil)
)

// maxEdgeDedup bounds the op-id dedup table. Replays arrive promptly (a
// replica re-forwards as soon as it restarts or its retry timer fires), so
// the window only needs to cover the in-flight set, with generous slack.
const maxEdgeDedup = 65536

// NewStoreBackend wraps a store and creates its sync engine; engine
// options (chunked reloads, sync-point retention) pass through.
func NewStoreBackend(store *dit.Store, opts ...resync.EngineOption) *StoreBackend {
	return &StoreBackend{
		engineSync: engineSync{Engine: resync.NewEngine(store, opts...)},
		Store:      store,
		Writes:     &metrics.WriteCounters{},
		edgeSeen:   make(map[string]uint64),
	}
}

// EdgeApply implements EdgeApplier: the master is the single CSN sequencer.
// The dedup check and the apply run under one lock so concurrent replays of
// the same op id cannot both commit.
func (b *StoreBackend) EdgeApply(c dit.Change, opID string) (uint64, bool, error) {
	b.edgeMu.Lock()
	defer b.edgeMu.Unlock()
	if b.edgeSeen == nil {
		b.edgeSeen = make(map[string]uint64)
	}
	if csn, ok := b.edgeSeen[opID]; ok {
		if b.Writes != nil {
			b.Writes.Duplicates.Add(1)
		}
		return csn, true, nil
	}
	csn, err := b.Store.ApplyCSN(c)
	if err != nil {
		return 0, false, err
	}
	b.edgeSeen[opID] = uint64(csn)
	b.edgeOrder = append(b.edgeOrder, opID)
	if len(b.edgeOrder) > maxEdgeDedup {
		delete(b.edgeSeen, b.edgeOrder[0])
		b.edgeOrder = b.edgeOrder[1:]
	}
	if b.Writes != nil {
		b.Writes.Applied.Add(1)
	}
	return uint64(csn), false, nil
}

// Bind implements Backend.
func (b *StoreBackend) Bind(name, password string) proto.ResultCode {
	if b.BindDN == "" {
		return proto.ResultSuccess
	}
	if name == b.BindDN && password == b.BindPassword {
		return proto.ResultSuccess
	}
	return proto.ResultInvalidCredentials
}

// Search implements Backend.
func (b *StoreBackend) Search(q query.Query) (*dit.Result, error) {
	return b.Store.Search(q)
}

// Add implements Backend.
func (b *StoreBackend) Add(req *proto.AddRequest) error { return b.apply(req) }

// Delete implements Backend.
func (b *StoreBackend) Delete(req *proto.DelRequest) error { return b.apply(req) }

// Modify implements Backend.
func (b *StoreBackend) Modify(req *proto.ModifyRequest) error { return b.apply(req) }

// ModifyDN implements Backend.
func (b *StoreBackend) ModifyDN(req *proto.ModifyDNRequest) error { return b.apply(req) }

// apply commits one update request to the store under the next CSN.
func (b *StoreBackend) apply(op proto.Op) error {
	c, err := changeFromOp(op)
	if err != nil {
		return err
	}
	_, err = b.Store.ApplyCSN(c)
	return err
}

// changeFromOp converts a wire update request into the journal-change form
// shared by the store's apply path, the edge-write WAL, and the upstream
// forwarding client.
func changeFromOp(op proto.Op) (dit.Change, error) {
	switch req := op.(type) {
	case *proto.AddRequest:
		e, err := req.Entry()
		if err != nil {
			return dit.Change{}, err
		}
		return dit.Change{Type: dit.ChangeAdd, DN: e.DN(), After: e}, nil
	case *proto.DelRequest:
		d, err := parseDN(req.DN)
		if err != nil {
			return dit.Change{}, err
		}
		return dit.Change{Type: dit.ChangeDelete, DN: d}, nil
	case *proto.ModifyRequest:
		d, err := parseDN(req.DN)
		if err != nil {
			return dit.Change{}, err
		}
		mods := make([]dit.Mod, 0, len(req.Changes))
		for _, c := range req.Changes {
			var mop dit.ModOp
			switch c.Op {
			case proto.ModifyOpAdd:
				mop = dit.ModAdd
			case proto.ModifyOpDelete:
				mop = dit.ModDelete
			case proto.ModifyOpReplace:
				mop = dit.ModReplace
			default:
				return dit.Change{}, errors.New("unknown modify op")
			}
			mods = append(mods, dit.Mod{Op: mop, Attr: c.Attr.Type, Values: c.Attr.Values})
		}
		return dit.Change{Type: dit.ChangeModify, DN: d, Mods: mods}, nil
	case *proto.ModifyDNRequest:
		old, err := parseDN(req.DN)
		if err != nil {
			return dit.Change{}, err
		}
		newRDNDN, err := parseDN(req.NewRDN)
		if err != nil {
			return dit.Change{}, err
		}
		leaf, ok := newRDNDN.Leaf()
		if !ok {
			return dit.Change{}, errors.New("empty newRDN")
		}
		var superior dn.DN
		if req.NewSuperior != "" {
			superior, err = parseDN(req.NewSuperior)
			if err != nil {
				return dit.Change{}, err
			}
		} else if p, ok := old.Parent(); ok {
			superior = p
		}
		return dit.Change{Type: dit.ChangeModifyDN, DN: old, NewDN: superior.Child(leaf)}, nil
	default:
		return dit.Change{}, fmt.Errorf("not an update operation: %T", op)
	}
}

// resultCodeFor maps store errors to LDAP result codes.
func resultCodeFor(err error) proto.ResultCode {
	switch {
	case err == nil:
		return proto.ResultSuccess
	case errors.Is(err, dit.ErrNoSuchObject):
		return proto.ResultNoSuchObject
	case errors.Is(err, dit.ErrAlreadyExists):
		return proto.ResultEntryAlreadyExists
	case errors.Is(err, dit.ErrNotLeaf):
		return proto.ResultNotAllowedOnNonLeaf
	case errors.Is(err, dit.ErrSchema):
		return proto.ResultObjectClassViolation
	case errors.Is(err, dit.ErrNoSuchContext):
		return proto.ResultReferral
	case errors.Is(err, ErrNotAnswerable), errors.Is(err, ErrNotContained):
		return proto.ResultReferral
	case errors.Is(err, edgewrite.ErrRejected):
		// The replica's containment gate refused the write; the referral
		// URLs (attached via ReferralError) point the client at the master.
		return proto.ResultReferral
	case errors.Is(err, edgewrite.ErrPending):
		// The write is durably journaled at the replica but its upstream
		// commit is unconfirmed; the client may retry (idempotent at the
		// master once the replay commits) or wait.
		return proto.ResultBusy
	case errors.Is(err, ErrReadOnly):
		return proto.ResultUnwillingToPerform
	case errors.Is(err, resync.ErrNoSuchSession):
		// Stale cookie: the consumer must re-Begin; clients map this code
		// back to resync.ErrNoSuchSession (see ResultError.Unwrap).
		return proto.ResultESyncRefreshRequired
	default:
		// An upstream verdict on a forwarded edge write (e.g. the master
		// answered entryAlreadyExists) relays its code to the edge client.
		var re *ResultError
		if errors.As(err, &re) {
			return re.Code
		}
		return proto.ResultOther
	}
}
