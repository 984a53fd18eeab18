package resync

import (
	"fmt"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/query"
)

// Applier applies synchronization updates to a replica-side store, keeping
// per-spec traffic accounting: this package's tests' consumer, which cannot
// be the replica package's FilterReplica (that package imports this one).
type Applier struct {
	Store   *dit.Store
	Traffic Traffic
}

// NewApplier wraps a replica store.
func NewApplier(store *dit.Store) *Applier {
	return &Applier{Store: store}
}

// Apply applies a poll result for the given content spec. On FullReload the
// spec's prior local content is discarded first. A retain update is an
// error: it is valid only in a result produced by PollRetain, whose
// consumer must also discard whatever held entry the result does not name.
func (a *Applier) Apply(spec query.Query, res *PollResult) error {
	if res.FullReload {
		if err := a.dropContent(spec); err != nil {
			return err
		}
	}
	for _, u := range res.Updates {
		a.Traffic.Add(u)
		switch u.Action {
		case ActionAdd, ActionModify:
			if err := a.put(u); err != nil {
				return fmt.Errorf("apply %s %q: %w", u.Action, u.DN.String(), err)
			}
		case ActionDelete:
			if err := a.remove(u.DN); err != nil {
				return fmt.Errorf("apply delete %q: %w", u.DN.String(), err)
			}
		case ActionRetain:
			return fmt.Errorf("retain action outside retain-mode sync for %q", u.DN.String())
		}
	}
	return nil
}

// put stores an add's or a modify's entry: the image in place of whatever is
// held, or a patch onto the held entry — for a move, the entry held at its old
// DN — (dit.ErrPatchMiss when there is none).
func (a *Applier) put(u Update) error {
	if u.Patch {
		return a.Store.ApplyOwned([]dit.SyncOp{{Patch: u.Entry, From: u.OldDN}})
	}
	return a.Store.Upsert(u.Entry)
}

// remove removes the entry at d, if held.
func (a *Applier) remove(d dn.DN) error { return a.Store.ApplyOwned([]dit.SyncOp{{Remove: d}}) }

// dropContent removes the spec's current local content.
func (a *Applier) dropContent(spec query.Query) error {
	for _, held := range a.Store.MatchAll(stripAttrs(spec)) {
		if err := a.remove(held.DN()); err != nil {
			return err
		}
	}
	return nil
}

// ApplyRetain applies an equation-(3) retain-mode result: mentioned entries
// are upserted or retained, and every held in-content entry that was not
// mentioned is discarded.
func (a *Applier) ApplyRetain(spec query.Query, res *PollResult) error {
	mentioned := make(map[string]bool, len(res.Updates))
	for _, u := range res.Updates {
		a.Traffic.Add(u)
		mentioned[u.DN.Norm()] = true
		switch u.Action {
		case ActionAdd, ActionModify:
			if err := a.put(u); err != nil {
				return fmt.Errorf("apply %s %q: %w", u.Action, u.DN.String(), err)
			}
		case ActionRetain:
			// Nothing to do: the entry is unchanged and already held.
		case ActionDelete:
			if err := a.remove(u.DN); err != nil {
				return err
			}
		}
	}
	for _, held := range a.Store.MatchAll(stripAttrs(spec)) {
		if !mentioned[held.DN().Norm()] {
			if err := a.remove(held.DN()); err != nil {
				return err
			}
		}
	}
	return nil
}
