package edgewrite

import (
	"fmt"
	"slices"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
)

// Admitter builds a Config.Admit gate from a replica's content specs: an
// add is accepted when the new entry falls under one of the specs (scope
// and filter — the replica will hold the entry once it syncs back, so the
// overlay has somewhere to live); a delete, modify or rename is accepted
// when the target is held locally. Everything else is the master's
// business — the rejection surfaces as ErrRejected, which the wire layer
// dresses as a referral.
func Admitter(specs []query.Query, lookup func(dn.DN) (*entry.Entry, bool)) func(dit.Change) error {
	normalized := make([]query.Query, len(specs))
	for i, q := range specs {
		normalized[i] = q.Normalize()
	}
	covered := func(e *entry.Entry) bool {
		return slices.ContainsFunc(normalized, func(q query.Query) bool { return q.Selects(e) })
	}
	return func(c dit.Change) error {
		switch c.Type {
		case dit.ChangeAdd:
			if c.After == nil {
				return fmt.Errorf("add without entry")
			}
			if !covered(c.After) {
				return fmt.Errorf("entry %s outside this replica's content specs", c.After.DN())
			}
			return nil
		case dit.ChangeDelete, dit.ChangeModify, dit.ChangeModifyDN:
			if lookup == nil {
				return fmt.Errorf("no local content to target")
			}
			if _, ok := lookup(c.DN); !ok {
				return fmt.Errorf("entry %s not held by this replica", c.DN)
			}
			return nil
		default:
			return fmt.Errorf("unknown change type %v", c.Type)
		}
	}
}
