package metrics

import "sync/atomic"

// TierCounters aggregates the adaptive control plane's activity on one
// cascade tier (internal/tierctl): the demand signals it consumed, the
// filter-set changes it applied, and the downstream effects — leaves
// migrating back from the fallback master and the re-sync volume widening
// cost.
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

// String renders the status line.
func (c *TierCounters) String() string { return status(c) }
