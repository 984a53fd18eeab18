package metrics

import "sync/atomic"

// AnswerCounters counts a filter replica's answers (replica.FilterReplica):
// the paper's hit is a query answered completely from the replica, without
// a referral.
type AnswerCounters struct {
	Queries atomic.Int64
	Hits    atomic.Int64
	Misses  atomic.Int64
	// ContainmentChecks counts stored and cached queries examined.
	ContainmentChecks atomic.Int64
	// EntriesReturned counts entries served from the replica.
	EntriesReturned atomic.Int64
}

// HitRatio returns Hits / Queries (0 for no queries).
func (c *AnswerCounters) HitRatio() float64 {
	q := c.Queries.Load()
	if q == 0 {
		return 0
	}
	return float64(c.Hits.Load()) / float64(q)
}

// String renders the status line.
func (c *AnswerCounters) String() string { return status(c) }
