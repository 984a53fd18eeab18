package metrics

import (
	"fmt"
	"sync/atomic"
)

// TierCounters aggregates the adaptive control plane's activity on one
// cascade tier (internal/tierctl): the demand signals it consumed, the
// filter-set changes it applied, and the downstream effects — leaves
// migrating back from the fallback master and the re-sync volume widening
// cost. All fields are atomic; the control loop and status reporting never
// contend.
type TierCounters struct {
	// StoredFilters is the current size of the tier's filter set (gauge).
	StoredFilters atomic.Int64

	// Demand signals consumed.
	RejectionsObserved atomic.Int64 // admission rejections fed to the selector
	WaitsObserved      atomic.Int64 // parked filters watches fed to the selector, one per watch per revolution
	ServingCredits     atomic.Int64 // stored-filter credits from live sessions/groups

	// Filter-set changes applied.
	Generalizations atomic.Int64 // filters adopted (tier widened)
	Revolutions     atomic.Int64 // narrowing passes applied (filters retired)
	FiltersRetired  atomic.Int64 // filters dropped by revolutions

	// Downstream effects.
	LeavesMigratedBack atomic.Int64 // previously rejected or waiting specs later admitted
	LeavesReferred     atomic.Int64 // downstream sessions re-referred by a narrowing
	WidenResyncEntries atomic.Int64 // entries pulled from upstream by adoptions
	WidenResyncBytes   atomic.Int64 // approximate bytes of that widening re-sync
}

// TierSnapshot is a point-in-time copy of the counters.
type TierSnapshot struct {
	StoredFilters                        int64
	RejectionsObserved, ServingCredits   int64
	WaitsObserved                        int64
	Generalizations, Revolutions         int64
	FiltersRetired                       int64
	LeavesMigratedBack, LeavesReferred   int64
	WidenResyncEntries, WidenResyncBytes int64
}

// Snapshot copies the current counter values.
func (c *TierCounters) Snapshot() TierSnapshot {
	return TierSnapshot{
		StoredFilters:      c.StoredFilters.Load(),
		RejectionsObserved: c.RejectionsObserved.Load(),
		WaitsObserved:      c.WaitsObserved.Load(),
		ServingCredits:     c.ServingCredits.Load(),
		Generalizations:    c.Generalizations.Load(),
		Revolutions:        c.Revolutions.Load(),
		FiltersRetired:     c.FiltersRetired.Load(),
		LeavesMigratedBack: c.LeavesMigratedBack.Load(),
		LeavesReferred:     c.LeavesReferred.Load(),
		WidenResyncEntries: c.WidenResyncEntries.Load(),
		WidenResyncBytes:   c.WidenResyncBytes.Load(),
	}
}

// String renders a compact status line for operator output.
func (s TierSnapshot) String() string {
	return fmt.Sprintf(
		"tierctl: filters=%d | rejections=%d waits=%d credits=%d | widened=%d revolutions=%d retired=%d | migrated-back=%d referred=%d | widen-resync=%d entries/%dB",
		s.StoredFilters,
		s.RejectionsObserved, s.WaitsObserved, s.ServingCredits,
		s.Generalizations, s.Revolutions, s.FiltersRetired,
		s.LeavesMigratedBack, s.LeavesReferred,
		s.WidenResyncEntries, s.WidenResyncBytes)
}
