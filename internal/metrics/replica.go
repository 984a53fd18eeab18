package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// ReplicaCounters aggregates replica-side supervision activity: connection
// lifecycle, session resumption, persist-stream fallbacks and durable
// state. All fields are atomic so the supervisor's hot loop never
// takes a lock to account an attempt.
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
	// Demotions never moves: the supplier's subscriber queue is the one
	// slow-consumer policy, and a supervisor keeps none of its own. The
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

	// Backoff: total time slept and number of waits.
	BackoffNanos atomic.Int64
	BackoffWaits atomic.Int64
}

// ObserveBackoff records one backoff sleep.
func (c *ReplicaCounters) ObserveBackoff(d time.Duration) {
	c.BackoffNanos.Add(int64(d))
	c.BackoffWaits.Add(1)
}

// ReplicaSnapshot is a point-in-time copy of the counters.
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
func (c *ReplicaCounters) Snapshot() ReplicaSnapshot {
	return ReplicaSnapshot{
		Dials:             c.Dials.Load(),
		Reconnects:        c.Reconnects.Load(),
		Begins:            c.Begins.Load(),
		Resumes:           c.Resumes.Load(),
		StaleSessions:     c.StaleSessions.Load(),
		PatchMisses:       c.PatchMisses.Load(),
		FullReloads:       c.FullReloads.Load(),
		ChunkResumes:      c.ChunkResumes.Load(),
		Polls:             c.Polls.Load(),
		StreamBatches:     c.StreamBatches.Load(),
		Fallbacks:         c.Fallbacks.Load(),
		Demotions:         c.Demotions.Load(),
		UpdatesApplied:    c.UpdatesApplied.Load(),
		UpstreamFallbacks: c.UpstreamFallbacks.Load(),
		Checkpoints:       c.Checkpoints.Load(),
		JournalAppends:    c.JournalAppends.Load(),
		JournalBytes:      c.JournalBytes.Load(),
		BackoffWaits:      c.BackoffWaits.Load(),
		BackoffTotal:      time.Duration(c.BackoffNanos.Load()),
	}
}

// String renders a compact status line for operator output.
func (s ReplicaSnapshot) String() string {
	return fmt.Sprintf(
		"replica: dials=%d reconnects=%d | begins=%d resumes=%d stale=%d patch-misses=%d full-reloads=%d chunk-resumes=%d | polls=%d stream-batches=%d fallbacks=%d applied=%d upstream-fallbacks=%d | checkpoints=%d journal-appends=%d journal-bytes=%d backoff=%s/%d",
		s.Dials, s.Reconnects, s.Begins, s.Resumes, s.StaleSessions, s.PatchMisses, s.FullReloads, s.ChunkResumes,
		s.Polls, s.StreamBatches, s.Fallbacks, s.UpdatesApplied,
		s.UpstreamFallbacks, s.Checkpoints, s.JournalAppends, s.JournalBytes, s.BackoffTotal, s.BackoffWaits)
}
