package ldapnet

import (
	"errors"

	"filterdir/internal/dit"
	"filterdir/internal/edgewrite"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
)

// ErrNotContained marks a downstream synchronization spec that is not
// contained in the serving replica's stored queries: the mid-tier cannot
// prove it holds every entry the spec selects, so the session must be
// established upstream instead. On the wire it maps to a referral result;
// the client maps the referral back to this sentinel so a supervisor can
// divert to its fallback master with errors.Is.
var ErrNotContained = errors.New("sync spec not contained in replica's stored queries")

// FilterWatcher is implemented by backends whose ability to serve a sync spec
// changes at runtime (a cascade tier, whose links load and whose filter set
// an adaptive control plane moves); the server's filters-watch long-poll is
// served from it.
type FilterWatcher interface {
	// Ready reports whether q can be served as a sync spec now, and returns
	// a channel closed at the next event that could make it so; the caller
	// asks again after the close.
	Ready(q query.Query) (ready bool, changed <-chan struct{})
	// Park tells the backend that a watch for q, not ready when it came,
	// waits on it until release is called: once the watch is answered,
	// abandoned or its connection closes. A tier's control plane reads what
	// waits as the demand of the leaves diverted for want of a filter.
	Park(q query.Query) (release func())
}

// Tier is what a CascadeBackend serves downstream replicas from: the
// mid-tier's own engine, the admission gate in front of it, and the watch
// diverted leaves wait on (*cascade.Tier satisfies it).
type Tier interface {
	FilterWatcher
	Admit(q query.Query) error
	Engine() *resync.Engine
}

// CascadeBackend serves a mid-tier cascade replica over the wire: searches
// behave exactly like ReplicaBackend (containment hit → local answer, miss
// → referral), but ReSync operations are served from the tier's own engine
// instead of being refused (engineSync shadows the embedded replica's
// noSync), with session establishment gated by the tier's containment check
// — a rejection surfaces as a referral carrying ErrNotContained semantics.
// The tier's own content changes only through its upstream session; updates
// submitted here ride the embedded ReplicaBackend's edge-write path, and
// edge-write forwards from downstream replicas are relayed one hop closer to
// the master via Upstream — the op id travels unchanged, so the master's
// dedup sees one op no matter how many hops (or replays) it took.
type CascadeBackend struct {
	*ReplicaBackend
	engineSync
	// FilterWatcher is the tier: it answers the server's filters-watch
	// control.
	FilterWatcher
	// Upstream relays edge-write forwards toward the sequencer; nil refuses
	// them (downstream writers then divert to their fallback master).
	Upstream edgewrite.Forwarder
}

var (
	_ Backend           = (*CascadeBackend)(nil)
	_ SyncCounterSource = (*CascadeBackend)(nil)
)

// NewCascadeBackend wraps a filter replica and its tier. masterURL is the
// referral target for search misses and rejected sync specs.
func NewCascadeBackend(rep *replica.FilterReplica, tier Tier, masterURL string) *CascadeBackend {
	return &CascadeBackend{
		ReplicaBackend: NewReplicaBackend(rep, masterURL),
		engineSync:     engineSync{Engine: tier.Engine(), admit: tier.Admit},
		FilterWatcher:  tier,
	}
}

// EdgeApply implements EdgeApplier by relaying the forwarded op upstream —
// the mid-tier hop of the edge-write protocol. The tier itself applies
// nothing: the committed change comes back down its ordinary sync session.
func (b *CascadeBackend) EdgeApply(c dit.Change, opID string) (uint64, bool, error) {
	if b.Upstream == nil {
		return 0, false, ErrReadOnly
	}
	return b.Upstream.Forward(c, opID)
}
