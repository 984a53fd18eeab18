package metrics

import (
	"sync/atomic"
	"time"
)

// SyncCounters aggregates master-side ReSync activity: session lifecycle
// events, update PDUs by action, full reloads, persist streaming, and the
// classification latency of the poll hot path.
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

	// Classify is the classification latency of one poll.
	Classify Mean `count:"Classifies" unit:"ns"`

	// Content-group fan-out. GroupJoins counts sessions that joined a
	// content group; GroupLeaves counts departures on sync_end.
	GroupJoins  atomic.Int64
	GroupLeaves atomic.Int64

	// Shared-classification cache: a miss classifies a change interval for
	// real; a hit reuses another group member's result. The dedup ratio of
	// the master's hottest path is Hits/(Hits+Misses).
	SharedClassifyHits   atomic.Int64
	SharedClassifyMisses atomic.Int64

	// CoalescedCycles and SlowDemotions read 0: they counted a persist
	// subscriber queue's deferred cycles and demotions, and a stream keeps
	// no queue now — it polls its session when the store commits, so a
	// slow consumer's backlog is one net batch and nothing is demoted
	// (resync.Subscription). They stay only because the load rig reads
	// them, until its rungs for them go.
	CoalescedCycles atomic.Int64
	SlowDemotions   atomic.Int64

	// Wire-level dedup on the persist fan-out path: StreamEncodes counts
	// PDU bodies actually BER-encoded, StreamDedupPDUs counts PDUs written
	// from an already-encoded shared body.
	StreamEncodes   atomic.Int64
	StreamDedupPDUs atomic.Int64

	// StreamQueueHighWater reads 0, for the same reason and as long as
	// CoalescedCycles: there is no subscriber queue to measure.
	StreamQueueHighWater Max
}

// SyncSnapshot is a point-in-time copy of the counters: what the load rig
// reads.
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

	GroupJoins, GroupLeaves                  int64
	SharedClassifyHits, SharedClassifyMisses int64
	CoalescedCycles, SlowDemotions           int64
	StreamEncodes, StreamDedupPDUs           int64
	StreamQueueHighWater                     int64
}

// Snapshot copies the current counter values.
func (c *SyncCounters) Snapshot() (s SyncSnapshot) { fill(&s, c); return s }

// String renders the status line.
func (c *SyncCounters) String() string { return status(c) }
