package metrics

import (
	"sync/atomic"
	"time"
)

// ReplicaCounters aggregates replica-side supervision activity: connection
// lifecycle, session resumption, persist-stream fallbacks and durable
// state.
type ReplicaCounters struct {
	// Connection lifecycle.
	Dials      atomic.Int64 // connection attempts (including the first)
	Reconnects atomic.Int64 // reconnects after a transport failure

	// Session lifecycle.
	Begins        atomic.Int64 // full Begin exchanges (null cookie)
	Resumes       atomic.Int64 // sessions resumed by cookie after a restart or reconnect
	StaleSessions atomic.Int64 // ErrNoSuchSession responses handled by re-Begin
	PatchMisses   atomic.Int64 // patches for an entry not held, handled by re-Begin
	FullReloads   atomic.Int64 // polls answered with a full content transfer
	ChunkResumes  atomic.Int64 // chunked-reload continuations by resume token

	// Steady state.
	Polls         atomic.Int64 // poll exchanges completed
	StreamBatches atomic.Int64 // persist-stream batches applied
	Fallbacks     atomic.Int64 // persist streams that ended, after which the supervisor reconnected
	// Demotions never moves: the supplier's stream coalescing a backlog
	// into its next poll is the one slow-consumer policy, and a supervisor keeps none of its own. The
	// field stays only because the load rig reads it.
	Demotions      atomic.Int64
	UpdatesApplied atomic.Int64 // update PDUs applied to the local content

	// Cascade topology: supervisors diverted from their configured
	// upstream (a mid-tier replica) to the fallback master after a
	// containment rejection, a stale session, or a failed upstream probe.
	UpstreamFallbacks atomic.Int64

	// Durability: every landed exchange is one journal append; a checkpoint
	// is a full snapshot of the content, written only when the journal has
	// outgrown the last one.
	Checkpoints    atomic.Int64 // full content snapshots written
	JournalAppends atomic.Int64 // committed journal batches, one per landed exchange
	JournalBytes   atomic.Int64 // bytes those batches wrote

	// Backoff is the time slept per backoff wait.
	Backoff Mean `count:"BackoffWaits" sum:"BackoffTotal" unit:"ns"`
}

// ReplicaSnapshot is a point-in-time copy of the counters: what the load
// rig reads.
type ReplicaSnapshot struct {
	Dials, Reconnects                          int64
	Begins, Resumes, StaleSessions             int64
	PatchMisses                                int64
	FullReloads, ChunkResumes                  int64
	Polls, StreamBatches, Fallbacks, Demotions int64
	UpdatesApplied, Checkpoints                int64
	JournalAppends, JournalBytes               int64
	UpstreamFallbacks                          int64
	BackoffWaits                               int64
	BackoffTotal                               time.Duration
}

// Snapshot copies the current counter values.
func (c *ReplicaCounters) Snapshot() (s ReplicaSnapshot) { fill(&s, c); return s }

// String renders the status line.
func (c *ReplicaCounters) String() string { return status(c) }
