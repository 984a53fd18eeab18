// Package replica implements the two directory replication models the paper
// compares:
//
//   - SubtreeReplica (Section 3.4.1): holds one or more replication contexts
//     (subtree suffix + subordinate referrals); a query is answerable when
//     its base lies inside a context and not under a referral, and counts as
//     a hit only when the answer generates no referrals.
//   - FilterReplica (Section 3.4.2): holds entries matching one or more
//     stored LDAP queries (generalized filters kept in sync via ReSync) plus
//     a window of recently-performed user queries cached verbatim; an
//     incoming query is answerable when it is semantically contained in any
//     stored or cached query.
package replica

import (
	"sync"

	"filterdir/internal/dit"
	"filterdir/internal/query"
)

// Metrics counts replica outcomes. Hit-ratio is Hits / Queries; the paper
// defines a hit as a query completely answered without generating referrals.
type Metrics struct {
	Queries uint64
	Hits    uint64
	Misses  uint64
	// Partial counts subtree-replica answers that produced referrals
	// (Section 3.1.3) — they are not hits.
	Partial uint64
	// ContainmentChecks counts stored/cached queries examined.
	ContainmentChecks uint64
	// EntriesReturned counts entries served from the replica.
	EntriesReturned uint64
}

// HitRatio returns Hits / Queries (0 for no queries).
func (m Metrics) HitRatio() float64 {
	if m.Queries == 0 {
		return 0
	}
	return float64(m.Hits) / float64(m.Queries)
}

// SubtreeReplica is a conventional partial replica holding whole subtrees.
type SubtreeReplica struct {
	store    *dit.Store
	contexts []dit.Context

	mu sync.Mutex
	m  Metrics
}

// NewSubtreeReplica creates a replica for the given replication contexts.
// The content store accepts entries under any context suffix.
func NewSubtreeReplica(contexts []dit.Context) (*SubtreeReplica, error) {
	suffixes := make([]string, len(contexts))
	for i, c := range contexts {
		suffixes[i] = c.Suffix.String()
	}
	st, err := dit.NewStore(suffixes)
	if err != nil {
		return nil, err
	}
	return &SubtreeReplica{store: st, contexts: contexts}, nil
}

// Store exposes the content store for loading and synchronization.
func (r *SubtreeReplica) Store() *dit.Store { return r.store }

// CanAnswer implements the paper's isContained(b, C) algorithm: the query
// base must equal a context suffix or lie inside a context without falling
// under one of its subordinate referrals.
func (r *SubtreeReplica) CanAnswer(q query.Query) bool {
	for _, c := range r.contexts {
		if c.Suffix.Equal(q.Base) {
			return true
		}
		if !c.Suffix.IsSuffix(q.Base) {
			continue
		}
		under := false
		for _, ref := range c.Referrals {
			if ref.IsSuffix(q.Base) {
				under = true
				break
			}
		}
		if under {
			return false
		}
		return true
	}
	return false
}

// Answer attempts to serve the query. hit is true only for a complete
// answer (no referrals); on a miss or partial answer the caller must chase
// the master.
func (r *SubtreeReplica) Answer(q query.Query) (res *dit.Result, hit bool) {
	r.mu.Lock()
	r.m.Queries++
	r.mu.Unlock()
	if !r.CanAnswer(q) {
		r.miss()
		return nil, false
	}
	res, err := r.store.Search(q)
	if err != nil {
		r.miss()
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(res.Referrals) > 0 {
		// Partially answered (Section 3.1.3): referrals for subordinate
		// contexts do not contribute to hit-ratio.
		r.m.Partial++
		return res, false
	}
	r.m.Hits++
	r.m.EntriesReturned += uint64(len(res.Entries))
	return res, true
}

func (r *SubtreeReplica) miss() {
	r.mu.Lock()
	r.m.Misses++
	r.mu.Unlock()
}

// Metrics returns a snapshot of the counters.
func (r *SubtreeReplica) Metrics() Metrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m
}
