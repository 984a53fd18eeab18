package metrics

import "sync/atomic"

// CascadeCounters aggregates mid-tier (cascade) replica activity: the
// containment admission gate for downstream sessions, upstream batches
// flowing through the tier and the apply→rebroadcast latency of the
// propagation path. (Durability is each upstream link's own: see
// ReplicaCounters.)
type CascadeCounters struct {
	// TierDepth is the configured distance from the master (gauge; 1 =
	// directly below the master).
	TierDepth atomic.Int64
	// DownstreamSessions is the number of live downstream ReSync sessions
	// served by the tier's engine (gauge, refreshed on session events).
	DownstreamSessions atomic.Int64

	// Containment admission gate.
	AdmitChecks atomic.Int64 // downstream Begin specs checked
	Admitted    atomic.Int64 // specs proven contained and admitted
	Rejected    atomic.Int64 // specs referred upstream (not contained)

	// Upstream propagation.
	UpstreamBatches atomic.Int64 // upstream exchanges applied to the tier store
	UpstreamUpdates atomic.Int64 // update PDUs applied from upstream

	// Apply→rebroadcast latency: for each upstream batch, the time until
	// the tier's engine first emits a downstream batch covering it.
	Rebroadcast    Mean `count:"Rebroadcasts" unit:"ns"`
	RebroadcastMax Max  `unit:"ns"`
}

// String renders the status line.
func (c *CascadeCounters) String() string { return status(c) }
