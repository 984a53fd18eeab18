package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// SyncCounters aggregates master-side ReSync activity: session lifecycle
// events, update PDUs by action, full reloads, persist streaming, and the
// classification latency of the poll hot path. All fields are atomic, so
// the counters can sit on concurrent hot paths without a lock; readers
// take a consistent-enough view via Snapshot.
type SyncCounters struct {
	// Session lifecycle.
	Begins      atomic.Int64 // sessions started (null-cookie syncs)
	Polls       atomic.Int64 // poll-mode exchanges served
	RetainPolls atomic.Int64 // retain-mode (equation 3) exchanges served
	Ends        atomic.Int64 // sessions terminated by sync_end

	// Update PDUs produced by classification, by action.
	PDUAdds     atomic.Int64
	PDUDeletes  atomic.Int64
	PDUModifies atomic.Int64
	PDURetains  atomic.Int64
	// PDUPatches counts the modifies (they are in PDUModifies too) sent as
	// attribute-level patches; the rest carried the complete entry. PDUMoves
	// counts the patches (in PDUPatches too) that were moves: a rename within
	// the content, one PDU where the paper sends a delete and an add.
	PDUPatches atomic.Int64
	PDUMoves   atomic.Int64

	// SuppressedModifies counts net-unchanged modify PDUs dropped by the
	// minimal-update-set check (e.g. modify-then-revert intervals).
	SuppressedModifies atomic.Int64

	// FullReloads counts polls answered with a full content transfer
	// because the journal no longer covered the session's sync point.
	FullReloads atomic.Int64

	// Resumable chunked reloads. ChunkedReloads counts full transfers
	// serialized into chunks; ReloadChunks counts chunk exchanges served
	// (including retransmissions after a resume); Resumes counts
	// presented resume tokens; ResumeRejects counts tokens refused —
	// unknown session, stale snapshot, or fingerprint mismatch — each
	// degrading to a restart from chunk zero.
	ChunkedReloads atomic.Int64
	ReloadChunks   atomic.Int64
	Resumes        atomic.Int64
	ResumeRejects  atomic.Int64

	// Reload snapshots: a full transfer (Begin, reload, each chunk of a
	// chunked one) is served from the content materialised once per content
	// group and CSN. ReloadSnapshotsBuilt counts materialisations,
	// ReloadSnapshotsShared the requests that found one to reuse; their sum
	// is the number of full transfers started.
	ReloadSnapshotsBuilt  atomic.Int64
	ReloadSnapshotsShared atomic.Int64

	// PersistStreams counts sessions upgraded to persist mode.
	PersistStreams atomic.Int64
	// StreamedPDUs counts update PDUs written to the wire by the server,
	// including persist-mode pushes.
	StreamedPDUs atomic.Int64

	// Classification latency: total nanoseconds and observations.
	ClassifyNanos atomic.Int64
	Classifies    atomic.Int64

	// Content-group fan-out. GroupJoins counts sessions that joined a
	// content group (GroupEquivJoins the subset admitted by containment
	// equivalence rather than an identical key); GroupLeaves counts
	// departures on sync_end.
	GroupJoins      atomic.Int64
	GroupEquivJoins atomic.Int64
	GroupLeaves     atomic.Int64

	// Shared-classification cache: a miss classifies a change interval for
	// real; a hit reuses another group member's result. The dedup ratio of
	// the master's hottest path is Hits/(Hits+Misses).
	SharedClassifyHits   atomic.Int64
	SharedClassifyMisses atomic.Int64

	// Persist fan-out slow-consumer policy: CoalescedCycles counts update
	// cycles deferred because a subscriber's queue was full (the lagging
	// session is left at its old sync point, so the next batch coalesces
	// the backlog); SlowDemotions counts subscriptions closed after too
	// many consecutive deferrals, demoting the consumer to poll mode.
	CoalescedCycles atomic.Int64
	SlowDemotions   atomic.Int64

	// Wire-level dedup on the persist broadcast path: StreamEncodes counts
	// PDU bodies actually BER-encoded, StreamDedupPDUs counts PDUs written
	// from an already-encoded shared body.
	StreamEncodes   atomic.Int64
	StreamDedupPDUs atomic.Int64

	// Per-connection write-queue pressure: StreamQueueDrops counts persist
	// streams torn down because the connection's bounded write queue stayed
	// full past the enqueue deadline; StreamQueueHighWater is the deepest
	// queue observed.
	StreamQueueDrops     atomic.Int64
	StreamQueueHighWater atomic.Int64
}

// ObserveQueueDepth folds one observed write-queue depth into the
// high-water mark.
func (c *SyncCounters) ObserveQueueDepth(depth int) {
	d := int64(depth)
	for {
		cur := c.StreamQueueHighWater.Load()
		if d <= cur || c.StreamQueueHighWater.CompareAndSwap(cur, d) {
			return
		}
	}
}

// ObserveClassify records one poll's classification latency.
func (c *SyncCounters) ObserveClassify(d time.Duration) {
	c.ClassifyNanos.Add(int64(d))
	c.Classifies.Add(1)
}

// SyncSnapshot is a point-in-time copy of the counters.
type SyncSnapshot struct {
	Begins, Polls, RetainPolls, Ends             int64
	PDUAdds, PDUDeletes, PDUModifies, PDURetains int64
	PDUPatches, PDUMoves                         int64
	SuppressedModifies                           int64
	FullReloads                                  int64
	ChunkedReloads, ReloadChunks                 int64
	Resumes, ResumeRejects                       int64
	ReloadSnapshotsBuilt, ReloadSnapshotsShared  int64
	PersistStreams, StreamedPDUs                 int64
	Classifies                                   int64
	AvgClassify                                  time.Duration

	GroupJoins, GroupEquivJoins, GroupLeaves int64
	SharedClassifyHits, SharedClassifyMisses int64
	CoalescedCycles, SlowDemotions           int64
	StreamEncodes, StreamDedupPDUs           int64
	StreamQueueDrops, StreamQueueHighWater   int64
}

// Snapshot copies the current counter values.
func (c *SyncCounters) Snapshot() SyncSnapshot {
	s := SyncSnapshot{
		Begins:             c.Begins.Load(),
		Polls:              c.Polls.Load(),
		RetainPolls:        c.RetainPolls.Load(),
		Ends:               c.Ends.Load(),
		PDUAdds:            c.PDUAdds.Load(),
		PDUDeletes:         c.PDUDeletes.Load(),
		PDUModifies:        c.PDUModifies.Load(),
		PDURetains:         c.PDURetains.Load(),
		PDUPatches:         c.PDUPatches.Load(),
		PDUMoves:           c.PDUMoves.Load(),
		SuppressedModifies: c.SuppressedModifies.Load(),
		FullReloads:        c.FullReloads.Load(),
		ChunkedReloads:     c.ChunkedReloads.Load(),
		ReloadChunks:       c.ReloadChunks.Load(),
		Resumes:            c.Resumes.Load(),
		ResumeRejects:      c.ResumeRejects.Load(),

		ReloadSnapshotsBuilt:  c.ReloadSnapshotsBuilt.Load(),
		ReloadSnapshotsShared: c.ReloadSnapshotsShared.Load(),

		PersistStreams: c.PersistStreams.Load(),
		StreamedPDUs:   c.StreamedPDUs.Load(),
		Classifies:     c.Classifies.Load(),

		GroupJoins:           c.GroupJoins.Load(),
		GroupEquivJoins:      c.GroupEquivJoins.Load(),
		GroupLeaves:          c.GroupLeaves.Load(),
		SharedClassifyHits:   c.SharedClassifyHits.Load(),
		SharedClassifyMisses: c.SharedClassifyMisses.Load(),
		CoalescedCycles:      c.CoalescedCycles.Load(),
		SlowDemotions:        c.SlowDemotions.Load(),
		StreamEncodes:        c.StreamEncodes.Load(),
		StreamDedupPDUs:      c.StreamDedupPDUs.Load(),
		StreamQueueDrops:     c.StreamQueueDrops.Load(),
		StreamQueueHighWater: c.StreamQueueHighWater.Load(),
	}
	if s.Classifies > 0 {
		s.AvgClassify = time.Duration(c.ClassifyNanos.Load() / s.Classifies)
	}
	return s
}

// ClassifyDedupRatio returns the fraction of classification demand served
// from the shared per-group cache (0 when nothing was classified).
func (s SyncSnapshot) ClassifyDedupRatio() float64 {
	total := s.SharedClassifyHits + s.SharedClassifyMisses
	if total == 0 {
		return 0
	}
	return float64(s.SharedClassifyHits) / float64(total)
}

// PDUs returns the total update PDUs produced across all actions.
func (s SyncSnapshot) PDUs() int64 {
	return s.PDUAdds + s.PDUDeletes + s.PDUModifies + s.PDURetains
}

// String renders a compact status line for operator output.
func (s SyncSnapshot) String() string {
	return fmt.Sprintf(
		"sync: begins=%d polls=%d retain=%d ends=%d persist=%d | pdus=%d (add=%d del=%d mod=%d [patch=%d (move=%d) image=%d] ret=%d suppressed=%d) streamed=%d | full-reloads=%d (chunked=%d chunks=%d resumes=%d rejects=%d) reload-snapshots=%d built/%d shared classify-avg=%s | groups: joins=%d (equiv=%d) leaves=%d classify-dedup=%.2f enc-dedup=%d/%d | slow: coalesced=%d demoted=%d qdrops=%d qmax=%d",
		s.Begins, s.Polls, s.RetainPolls, s.Ends, s.PersistStreams,
		s.PDUs(), s.PDUAdds, s.PDUDeletes, s.PDUModifies, s.PDUPatches, s.PDUMoves, s.PDUModifies-s.PDUPatches, s.PDURetains,
		s.SuppressedModifies, s.StreamedPDUs, s.FullReloads,
		s.ChunkedReloads, s.ReloadChunks, s.Resumes, s.ResumeRejects,
		s.ReloadSnapshotsBuilt, s.ReloadSnapshotsShared, s.AvgClassify,
		s.GroupJoins, s.GroupEquivJoins, s.GroupLeaves, s.ClassifyDedupRatio(),
		s.StreamDedupPDUs, s.StreamEncodes,
		s.CoalescedCycles, s.SlowDemotions, s.StreamQueueDrops, s.StreamQueueHighWater)
}
