package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// CascadeCounters aggregates mid-tier (cascade) replica activity: the
// containment admission gate for downstream sessions, upstream batches
// flowing through the tier and the apply→rebroadcast latency of the
// propagation path. (Durability is each upstream link's own: see
// ReplicaCounters.) All fields are atomic so the
// tier's hot paths (supervisor apply, engine emission) never take a lock
// to account an event.
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
	RebroadcastNanos    atomic.Int64
	Rebroadcasts        atomic.Int64
	RebroadcastMaxNanos atomic.Int64
}

// ObserveRebroadcast records one apply→rebroadcast latency sample.
func (c *CascadeCounters) ObserveRebroadcast(d time.Duration) {
	n := int64(d)
	c.RebroadcastNanos.Add(n)
	c.Rebroadcasts.Add(1)
	for {
		cur := c.RebroadcastMaxNanos.Load()
		if n <= cur || c.RebroadcastMaxNanos.CompareAndSwap(cur, n) {
			return
		}
	}
}

// CascadeSnapshot is a point-in-time copy of the counters.
type CascadeSnapshot struct {
	TierDepth, DownstreamSessions  int64
	AdmitChecks, Admitted          int64
	Rejected                       int64
	UpstreamBatches                int64
	UpstreamUpdates                int64
	Rebroadcasts                   int64
	AvgRebroadcast, MaxRebroadcast time.Duration
}

// Snapshot copies the current counter values.
func (c *CascadeCounters) Snapshot() CascadeSnapshot {
	s := CascadeSnapshot{
		TierDepth:          c.TierDepth.Load(),
		DownstreamSessions: c.DownstreamSessions.Load(),
		AdmitChecks:        c.AdmitChecks.Load(),
		Admitted:           c.Admitted.Load(),
		Rejected:           c.Rejected.Load(),
		UpstreamBatches:    c.UpstreamBatches.Load(),
		UpstreamUpdates:    c.UpstreamUpdates.Load(),
		Rebroadcasts:       c.Rebroadcasts.Load(),
		MaxRebroadcast:     time.Duration(c.RebroadcastMaxNanos.Load()),
	}
	if s.Rebroadcasts > 0 {
		s.AvgRebroadcast = time.Duration(c.RebroadcastNanos.Load() / s.Rebroadcasts)
	}
	return s
}

// String renders a compact status line for operator output.
func (s CascadeSnapshot) String() string {
	return fmt.Sprintf(
		"cascade: depth=%d downstream=%d | admit=%d/%d rejected=%d | upstream-batches=%d applied=%d | rebroadcast avg=%s max=%s (%d)",
		s.TierDepth, s.DownstreamSessions, s.Admitted, s.AdmitChecks, s.Rejected,
		s.UpstreamBatches, s.UpstreamUpdates,
		s.AvgRebroadcast, s.MaxRebroadcast, s.Rebroadcasts)
}
