package replica

import (
	"fmt"
	"sort"

	"filterdir/internal/dn"
	"filterdir/internal/query"
	"filterdir/internal/resync"
	"filterdir/internal/selection"
)

// Supplier is the master-side synchronization interface an adaptive replica
// consumes, in the engine's own vocabulary: *resync.Engine satisfies it
// in-process and *ldapnet.Client over the wire, so a replica adapts the same
// way against either.
type Supplier interface {
	// Begin starts a session for the content of q; the result carries the
	// initial content and the session cookie.
	Begin(q query.Query) (*resync.PollResult, error)
	// Poll returns the net updates since the last poll and the new cookie;
	// FullReload reports that the content was resent from scratch.
	Poll(cookie string) (*resync.PollResult, error)
	// End terminates a session.
	End(cookie string) error
}

// AdaptiveReplica combines a FilterReplica with the Section 6.2 selection
// loop: every answered query feeds the candidate statistics, revolutions
// install and release filters, and stored content is kept synchronized
// through the Supplier. The two update-traffic components of Section 7.3
// are accounted separately.
type AdaptiveReplica struct {
	Replica  *FilterReplica
	Selector *selection.Selector
	Supplier Supplier

	cookies map[string]string
	specs   map[string]query.Query

	// ResyncTraffic accumulates component (i): keeping stored filters in
	// sync with the master.
	ResyncTraffic resync.Traffic
	// FetchTraffic accumulates component (ii): initial content transfers
	// for newly selected filters.
	FetchTraffic resync.Traffic
}

// NewAdaptiveReplica wires the pieces together.
func NewAdaptiveReplica(rep *FilterReplica, sel *selection.Selector, sup Supplier) *AdaptiveReplica {
	return &AdaptiveReplica{
		Replica:  rep,
		Selector: sel,
		Supplier: sup,
		cookies:  make(map[string]string),
		specs:    make(map[string]query.Query),
	}
}

// Serve answers one user query and feeds the selection statistics. The
// observed query's base is generalized to the root so candidates answer
// minimally-directory-enabled applications too.
func (a *AdaptiveReplica) Serve(q query.Query) (hit bool, err error) {
	_, hit, _ = a.Replica.Answer(q)
	obs := q
	obs.Base = dn.Root
	if d := a.Selector.Observe(obs); d != nil {
		if err := a.ApplyDelta(d); err != nil {
			return hit, err
		}
	}
	return hit, nil
}

// ApplyDelta installs a revolution outcome: removed filters release their
// content and session, added filters begin synchronization.
func (a *AdaptiveReplica) ApplyDelta(d *selection.Delta) error {
	if d == nil {
		return nil
	}
	for _, q := range d.Remove {
		if err := a.RemoveFilter(q); err != nil {
			return err
		}
	}
	for _, q := range d.Add {
		if err := a.AddFilter(q); err != nil {
			return err
		}
	}
	return nil
}

// AddFilter begins replicating a query (idempotent).
func (a *AdaptiveReplica) AddFilter(q query.Query) error {
	key := q.Normalize().Key()
	if _, ok := a.cookies[key]; ok {
		return nil
	}
	res, err := a.Supplier.Begin(q)
	if err != nil {
		return fmt.Errorf("begin sync %s: %w", q.FilterString(), err)
	}
	a.Replica.AddStored(q, res.Cookie)
	if err := a.Replica.ApplySync(q, res.Updates); err != nil {
		return err
	}
	for _, u := range res.Updates {
		a.FetchTraffic.Add(u)
	}
	a.cookies[key] = res.Cookie
	a.specs[key] = q
	return nil
}

// RemoveFilter stops replicating a query and releases its content.
func (a *AdaptiveReplica) RemoveFilter(q query.Query) error {
	key := q.Normalize().Key()
	cookie, ok := a.cookies[key]
	if !ok {
		return nil
	}
	delete(a.cookies, key)
	delete(a.specs, key)
	a.Replica.RemoveStored(q)
	return a.Supplier.End(cookie)
}

// SyncAll polls every stored filter's session, in key order, and applies
// the updates.
func (a *AdaptiveReplica) SyncAll() error {
	keys := make([]string, 0, len(a.cookies))
	for k := range a.cookies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if err := a.syncOne(key); err != nil {
			return err
		}
	}
	return nil
}

// Close ends every session.
func (a *AdaptiveReplica) Close() error {
	var firstErr error
	for key, cookie := range a.cookies {
		if err := a.Supplier.End(cookie); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(a.cookies, key)
		delete(a.specs, key)
	}
	return firstErr
}

// StoredFilters returns the currently replicated queries.
func (a *AdaptiveReplica) StoredFilters() []query.Query {
	out := make([]query.Query, 0, len(a.specs))
	for _, q := range a.specs {
		out = append(out, q)
	}
	return out
}

// syncOne polls a single filter's session and applies the updates.
func (a *AdaptiveReplica) syncOne(key string) error {
	res, err := a.Supplier.Poll(a.cookies[key])
	if err != nil {
		return fmt.Errorf("poll %s: %w", a.specs[key].FilterString(), err)
	}
	if res.FullReload {
		spec := a.specs[key]
		a.Replica.RemoveStored(spec)
		a.Replica.AddStored(spec, res.Cookie)
	}
	if err := a.Replica.ApplySync(a.specs[key], res.Updates); err != nil {
		return err
	}
	a.cookies[key] = res.Cookie
	for _, u := range res.Updates {
		a.ResyncTraffic.Add(u)
	}
	return nil
}
