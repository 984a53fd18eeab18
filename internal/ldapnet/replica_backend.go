package ldapnet

import (
	"errors"
	"fmt"

	"filterdir/internal/dit"
	"filterdir/internal/edgewrite"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/replica"
)

// Errors mapped to wire result codes by the replica backend.
var (
	// ErrNotAnswerable marks a query outside the replica's content; the
	// response is a referral to the master.
	ErrNotAnswerable = errors.New("query not answerable by replica")
	// ErrReadOnly marks update or synchronization operations sent to a
	// read-only replica.
	ErrReadOnly = errors.New("replica is read-only")
)

// ReplicaBackend serves a filter-based replica over the wire: contained
// queries are answered from the replicated content, everything else gets a
// referral to the master — the behaviour Section 3 defines for filter-based
// replicas. Synchronization requests are refused (the embedded noSync: the
// replica is a consumer, not a supplier). Updates are refused unless an
// edge-write Writer is attached, in which case they are journaled locally
// and forwarded up the cascade (see internal/edgewrite).
type ReplicaBackend struct {
	noSync
	Replica *replica.FilterReplica
	// MasterURL is the referral target for misses, e.g. "ldap://master".
	MasterURL string
	// Edge, when set, accepts update operations at this replica: admitted
	// ops are WAL-journaled, overlaid on local reads, and forwarded to the
	// master. Nil keeps the replica read-only.
	Edge *edgewrite.Writer
}

var _ Backend = (*ReplicaBackend)(nil)

// NewReplicaBackend wraps a filter replica.
func NewReplicaBackend(rep *replica.FilterReplica, masterURL string) *ReplicaBackend {
	return &ReplicaBackend{Replica: rep, MasterURL: masterURL}
}

// Search implements Backend: a containment hit is served locally; a miss
// produces a referral to the master.
func (b *ReplicaBackend) Search(q query.Query) (*dit.Result, error) {
	entries, hit, _ := b.Replica.Answer(q)
	if !hit {
		res := &dit.Result{}
		if b.MasterURL != "" {
			res.Referrals = append(res.Referrals, b.MasterURL)
		}
		return res, fmt.Errorf("%w: %s", ErrNotAnswerable, q.FilterString())
	}
	return &dit.Result{Entries: entries}, nil
}

// Add implements Backend via the edge-write path (ErrReadOnly when none).
func (b *ReplicaBackend) Add(req *proto.AddRequest) error { return b.edgeSubmit(req) }

// Delete implements Backend via the edge-write path (ErrReadOnly when none).
func (b *ReplicaBackend) Delete(req *proto.DelRequest) error { return b.edgeSubmit(req) }

// Modify implements Backend via the edge-write path (ErrReadOnly when none).
func (b *ReplicaBackend) Modify(req *proto.ModifyRequest) error { return b.edgeSubmit(req) }

// ModifyDN implements Backend via the edge-write path (ErrReadOnly when none).
func (b *ReplicaBackend) ModifyDN(req *proto.ModifyDNRequest) error { return b.edgeSubmit(req) }

// edgeSubmit routes an update into the edge-write Writer. A containment
// rejection is dressed as a referral to the master — the client chases it
// exactly like a search miss.
func (b *ReplicaBackend) edgeSubmit(op proto.Op) error {
	if b.Edge == nil {
		return ErrReadOnly
	}
	c, err := changeFromOp(op)
	if err != nil {
		return err
	}
	_, err = b.Edge.Submit(c)
	if errors.Is(err, edgewrite.ErrRejected) && b.MasterURL != "" {
		return &ReferralError{URLs: []string{b.MasterURL}, Err: err}
	}
	return err
}
