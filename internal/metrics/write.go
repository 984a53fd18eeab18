package metrics

import "sync/atomic"

// WriteCounters aggregates edge-write activity. On a replica they count the
// local accept→forward→commit→retire lifecycle of edge-originated writes;
// on the master they count the sequencer side (applied ops and dedup hits
// from replayed forwards).
type WriteCounters struct {
	// Replica side: the edge-write lifecycle.
	Accepted  atomic.Int64 // ops admitted and journaled to the WAL
	Rejected  atomic.Int64 // ops refused by the containment gate (referred to master)
	Forwarded atomic.Int64 // forward attempts sent upstream (includes retries)
	Committed atomic.Int64 // ops assigned a CSN by the master
	Retired   atomic.Int64 // ops whose CSN echoed back down the ReSync stream
	// WALReplays counts ops re-forwarded from the WAL after a crash or a
	// failed forward (the at-least-once half of the exactly-once story; the
	// master's dedup supplies the other half).
	WALReplays atomic.Int64

	// Pending-overlay depth (gauge + high-water).
	Pending          atomic.Int64
	PendingHighWater Max

	// Master side: the CSN sequencer.
	Applied    atomic.Int64 // edge ops applied and assigned a CSN
	Duplicates atomic.Int64 // replayed forwards answered from the dedup table
}

// String renders the status line.
func (c *WriteCounters) String() string { return status(c) }
