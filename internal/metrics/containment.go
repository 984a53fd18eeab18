package metrics

import "sync/atomic"

// ContainmentCounters counts how a containment checker reached its
// decisions (containment.Checker); the template machinery exists to drive
// traffic away from the generic path.
type ContainmentCounters struct {
	// SameTemplate counts Proposition 3 fast-path decisions.
	SameTemplate atomic.Int64
	// Compiled counts evaluations of a pre-compiled template-pair condition.
	Compiled atomic.Int64
	// ImpossiblePruned counts queries rejected by a template pair known to
	// admit no containment regardless of assertion values.
	ImpossiblePruned atomic.Int64
	// AlwaysAccepted counts queries accepted by a template pair whose
	// containment holds for all assertion values.
	AlwaysAccepted atomic.Int64
	// Fallback counts queries answered "not contained" because their
	// template pair's DNF exceeds the filter package's expansion bound.
	Fallback atomic.Int64
	// PlansCompiled counts distinct template pairs analyzed.
	PlansCompiled atomic.Int64
}

// ContainmentSnapshot is a point-in-time copy of the counters: what the
// load rig and the containment-stats figure read.
type ContainmentSnapshot struct {
	SameTemplate, Compiled, ImpossiblePruned uint64
	AlwaysAccepted, Fallback, PlansCompiled  uint64
}

// Snapshot copies the current counter values.
func (c *ContainmentCounters) Snapshot() (s ContainmentSnapshot) { fill(&s, c); return s }

// String renders the status line.
func (c *ContainmentCounters) String() string { return status(c) }
