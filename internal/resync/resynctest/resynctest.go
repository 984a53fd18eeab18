// Package resynctest holds the convergence check that the tests of resync and
// of the packages built on it (supervisor) compare a replica against: the
// definition of a synchronized replica, independent of the engine.
package resynctest

import (
	"fmt"

	"filterdir/internal/dit"
	"filterdir/internal/query"
)

// Converged reports whether the replica's content for spec equals the
// master's, entry for entry.
func Converged(master, replica *dit.Store, spec query.Query) (bool, string) {
	region := query.Query{Base: spec.Base, Scope: spec.Scope, Filter: spec.Filter}
	ms := master.MatchAll(region)
	rs := replica.MatchAll(region)
	mMap := make(map[string]int, len(ms))
	for i, e := range ms {
		mMap[e.DN().Norm()] = i
	}
	if len(ms) != len(rs) {
		return false, fmt.Sprintf("master holds %d entries, replica %d", len(ms), len(rs))
	}
	for _, re := range rs {
		i, ok := mMap[re.DN().Norm()]
		if !ok {
			return false, fmt.Sprintf("replica holds %q not in master content", re.DN().String())
		}
		if !ms[i].Select(spec.Attrs).Equal(re.Select(spec.Attrs)) {
			return false, fmt.Sprintf("entry %q differs", re.DN().String())
		}
	}
	return true, ""
}
