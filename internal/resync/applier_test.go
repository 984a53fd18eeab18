package resync

import (
	"errors"
	"fmt"

	"filterdir/internal/dit"
	"filterdir/internal/query"
)

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
			if err := a.Store.RemoveAny(u.DN); err != nil && !errors.Is(err, dit.ErrNoSuchObject) {
				return err
			}
		}
	}
	for _, held := range a.Store.MatchAll(stripAttrs(spec)) {
		if !mentioned[held.DN().Norm()] {
			if err := a.Store.RemoveAny(held.DN()); err != nil && !errors.Is(err, dit.ErrNoSuchObject) {
				return err
			}
		}
	}
	return nil
}
