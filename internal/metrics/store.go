package metrics

import "sync/atomic"

// StoreCounters aggregates DIT-store commit-pipeline and snapshot activity:
// write batches flushed by the group-commit leader, copy-on-write shard
// clones forced by frozen snapshots, and multi-shard freezes taken by
// readers.
type StoreCounters struct {
	// Commit pipeline.
	Batch    Mean `count:"Batches" sum:"BatchedOps"` // updates per batch a commit leader flushed
	MaxBatch Max  // largest single batch flushed

	// Copy-on-write snapshots.
	Freezes     atomic.Int64 // multi-shard frozen views taken by readers
	ShardClones atomic.Int64 // shard states cloned because a frozen view pinned them
}

// StoreSnapshot is a point-in-time copy of the counters: what the load rig
// reads.
type StoreSnapshot struct {
	Batches, BatchedOps, MaxBatch int64
	Freezes, ShardClones          int64
}

// Snapshot copies the current counter values.
func (c *StoreCounters) Snapshot() (s StoreSnapshot) { fill(&s, c); return s }

// String renders the status line.
func (c *StoreCounters) String() string { return status(c) }
