package resync

import (
	"errors"
	"fmt"

	"filterdir/internal/dit"
	"filterdir/internal/query"
)

// Applier applies synchronization updates to a replica-side store, keeping
// per-spec traffic accounting.
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
			if err := a.Store.RemoveAny(u.DN); err != nil && !errors.Is(err, dit.ErrNoSuchObject) {
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

// dropContent removes the spec's current local content.
func (a *Applier) dropContent(spec query.Query) error {
	for _, held := range a.Store.MatchAll(stripAttrs(spec)) {
		if err := a.Store.RemoveAny(held.DN()); err != nil && !errors.Is(err, dit.ErrNoSuchObject) {
			return err
		}
	}
	return nil
}
