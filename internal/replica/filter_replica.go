package replica

import (
	"fmt"
	"slices"
	"sync"

	"filterdir/internal/containment"
	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/metrics"
	"filterdir/internal/query"
	"filterdir/internal/resync"
)

// StoredQuery is the meta information kept for one replicated query.
type StoredQuery struct {
	Query query.Query
	// Cookie is the ReSync session cookie AddStored was given. Nothing
	// reads it: each session's owner (AdaptiveReplica, the supervisor)
	// polls with a cookie of its own.
	Cookie string
}

// FilterReplica is the paper's proposed replica: entries matching one or
// more stored LDAP queries, each kept in sync. Entry storage is shared and
// reference counted: an entry is dropped when the last query covering it is
// removed.
type FilterReplica struct {
	store   *dit.Store
	checker *containment.Checker

	mu sync.Mutex
	// stored indexes replicated queries by filter template; same-template
	// candidates are checked with Proposition 3 before any cross-template
	// work.
	stored map[string][]*StoredQuery

	// refs tracks which stored queries (owners, by ownerKey) cover each
	// entry, keyed by normalized DN; ownerDNs is the inverse. An owner
	// stands in refs as the small id ownerIDs gives its key for as long as
	// it covers anything. The parsed DN of a covered entry is the store's
	// to give back (dit.Store.Held).
	refs     map[string]ownerSet
	ownerDNs map[string]map[string]bool
	ownerIDs map[string]ownerID
	lastID   ownerID

	contentIndexes []string
	journalLimit   int

	// overlay, when set, post-processes Answer hits with the replica's
	// pending edge writes (read-your-writes: a locally accepted update is
	// visible before its CSN echoes back down the sync stream). Set once
	// during wiring, before the replica serves queries.
	overlay func(q query.Query, entries []*entry.Entry) []*entry.Entry

	counts metrics.AnswerCounters
}

// Option configures a FilterReplica.
type FROption func(*FilterReplica)

// WithChecker shares a containment checker (and its compiled template-pair
// plans) across replicas.
func WithChecker(c *containment.Checker) FROption {
	return func(r *FilterReplica) { r.checker = c }
}

// WithCacheCapacity does nothing. A replica holds synced stored queries
// only; the window of recently performed user queries the experiments
// compare against lives in internal/sim. The option stays until its last
// caller, the load rig's topology, drops it.
func WithCacheCapacity(int) FROption { return func(*FilterReplica) {} }

// WithContentIndexes declares equality/prefix indexes on the replica's
// content store (dit.WithIndexes): each is built at the first Search,
// MatchAll or Snapshot of the store it would answer — at a mid-tier, its
// first downstream Begin — and maintained by every apply after that. A leaf
// nothing reads from never builds one, and pays nothing for declaring them.
func WithContentIndexes(attrs ...string) FROption {
	return func(r *FilterReplica) { r.contentIndexes = attrs }
}

// DefaultJournalLimit bounds the content store's update journal of a
// replica that serves no engine. Nothing reads that journal — only a served
// engine replays its store's journal — so without a bound it would hold the
// before- and after-image of every applied update for the life of the
// replica.
const DefaultJournalLimit = 64

// WithJournalLimit bounds the content store's update journal at n changes
// (default DefaultJournalLimit); 0 keeps every change. A cascade mid-tier
// serving ReSync to downstream replicas needs the journal for incremental
// classification, so it passes a bound of its own: past it a lagging
// downstream session degrades soundly to a full reload.
func WithJournalLimit(n int) FROption {
	return func(r *FilterReplica) { r.journalLimit = n }
}

// NewFilterReplica creates an empty filter-based replica.
func NewFilterReplica(opts ...FROption) (*FilterReplica, error) {
	r := &FilterReplica{
		stored:       make(map[string][]*StoredQuery),
		refs:         make(map[string]ownerSet),
		ownerDNs:     make(map[string]map[string]bool),
		ownerIDs:     make(map[string]ownerID),
		journalLimit: DefaultJournalLimit,
	}
	for _, o := range opts {
		o(r)
	}
	if r.checker == nil {
		r.checker = containment.NewChecker()
	}
	var ditOpts []dit.Option
	if len(r.contentIndexes) > 0 {
		ditOpts = append(ditOpts, dit.WithIndexes(r.contentIndexes...))
	}
	if r.journalLimit > 0 {
		ditOpts = append(ditOpts, dit.WithJournalLimit(r.journalLimit))
	}
	st, err := dit.NewStore([]string{""}, ditOpts...)
	if err != nil {
		return nil, err
	}
	r.store = st
	return r, nil
}

// AddStored registers a replicated query's meta information, after which
// queries it contains are answered from its content (ApplySync).
func (r *FilterReplica) AddStored(q query.Query, cookie string) {
	nq := q.Normalize()
	tpl := nq.Template()
	r.mu.Lock()
	r.stored[tpl] = append(r.stored[tpl], &StoredQuery{Query: nq, Cookie: cookie})
	r.mu.Unlock()
}

// RemoveStored drops a replicated query and releases the content it alone
// covered, registered or not: content a transfer still in progress applied
// is released too. It returns the stored query (for session teardown) or nil.
func (r *FilterReplica) RemoveStored(q query.Query) *StoredQuery {
	nq := q.Normalize()
	key := ownerKey(nq)
	tpl := nq.Template()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropOwnerLocked(key)
	list := r.stored[tpl]
	for i, sq := range list {
		if ownerKey(sq.Query) == key {
			r.stored[tpl] = append(list[:i], list[i+1:]...)
			if len(r.stored[tpl]) == 0 {
				delete(r.stored, tpl)
			}
			return sq
		}
	}
	return nil
}

// ApplySync applies ReSync updates for a stored query's content as one
// owned batch: the reference counts are updated action by action, the store
// actions they result in are committed together (dit.Store.ApplyOwned), and
// the replica takes ownership of every update's entry — it is stored as it
// is, not copied, so the caller must not change it afterwards. A consumer
// passes what it decoded off the wire; an in-process caller passes entries a
// store or an engine handed it, which are frozen and safe to share.
//
// A patch (resync.Update.Patch) replaces the attributes it names in the entry
// this query already covers. One for an entry the query does not cover fails
// with dit.ErrPatchMiss — a partial entry is never created — and the caller
// re-establishes the query's content with a full transfer. A move
// (resync.Update.OldDN) is applied by moveLocked.
func (r *FilterReplica) ApplySync(q query.Query, updates []resync.Update) error {
	key := ownerKey(q.Normalize())
	ops := make([]dit.SyncOp, 0, len(updates))
	r.mu.Lock()
	defer r.mu.Unlock()
	// What precedes a bad update is applied, as when updates were stored
	// one by one.
	var bad error
scan:
	for _, u := range updates {
		switch {
		case u.Action == resync.ActionDelete:
			if r.delRefLocked(key, u.DN.Norm()) {
				ops = append(ops, dit.SyncOp{Remove: u.DN})
			}
		case u.Action != resync.ActionAdd && u.Action != resync.ActionModify:
			bad = fmt.Errorf("unsupported sync action %v", u.Action)
			break scan
		case u.Entry == nil:
			bad = fmt.Errorf("nil entry in sync update")
			break scan
		case u.IsMove():
			moved, err := r.moveLocked(key, u)
			if err != nil {
				bad = err
				break scan
			}
			ops = append(ops, moved...)
		case u.Patch:
			if !r.refs[u.DN.Norm()].has(r.ownerIDs[key]) {
				bad = fmt.Errorf("%w: %q", dit.ErrPatchMiss, u.DN.String())
				break scan
			}
			ops = append(ops, dit.SyncOp{Patch: u.Entry})
		default:
			r.addRefLocked(key, u.Entry.DN())
			ops = append(ops, dit.SyncOp{Put: u.Entry})
		}
	}
	if err := r.store.ApplyOwned(ops); err != nil {
		return err
	}
	return bad
}

// moveLocked turns one owner's move into store actions and moves the owner's
// reference from the old DN to the new one. Who holds which name decides:
//
//   - the old DN is this owner's alone and nobody holds the new one: the
//     entry is re-keyed and patched, a sparse move (dit.SyncOp.From);
//   - another owner still holds the old DN: a copy of the entry, re-keyed and
//     patched, goes in at the new DN and the old one stays (SyncOp.Keep);
//   - the new DN is held already: this owner lets go of the old DN (removed
//     if it was the last owner) and the new one is patched;
//   - the old DN is not this owner's but the new one is — a redelivery to a
//     consumer that is ahead: the patch alone;
//   - this owner holds neither: dit.ErrPatchMiss.
func (r *FilterReplica) moveLocked(key string, u resync.Update) ([]dit.SyncOp, error) {
	me := r.ownerIDs[key]
	oldNorm := u.OldDN.Norm()
	oldRefs, newRefs := r.refs[oldNorm], r.refs[u.DN.Norm()]
	switch {
	case !oldRefs.has(me):
		if !newRefs.has(me) {
			return nil, fmt.Errorf("%w: move %q <- %q", dit.ErrPatchMiss, u.DN.String(), u.OldDN.String())
		}
		return []dit.SyncOp{{Patch: u.Entry}}, nil
	case newRefs.first != 0:
		var ops []dit.SyncOp
		if r.delRefLocked(key, oldNorm) {
			ops = append(ops, dit.SyncOp{Remove: u.OldDN})
		}
		r.addRefLocked(key, u.DN)
		return append(ops, dit.SyncOp{Patch: u.Entry}), nil
	default:
		// With owners beside this one the entry is copied, and copied as the
		// batch's earlier actions leave it, not as it is held during this scan.
		shared := len(oldRefs.rest) > 0
		r.delRefLocked(key, oldNorm)
		r.addRefLocked(key, u.DN)
		return []dit.SyncOp{{Patch: u.Entry, From: u.OldDN, Keep: shared}}, nil
	}
}

// Answer attempts to serve the query from replicated content. via reports
// which stored query answered ("" on miss).
//
// The result is evaluated against the containing query's own content, not
// the whole shared store: q ⊆ container guarantees every entry matching q
// lies in the container's content, and restricting to it keeps stale
// entries held only by another stored query, one that has not polled yet,
// out of answers the container gives.
func (r *FilterReplica) Answer(q query.Query) (entries []*entry.Entry, hit bool, via string) {
	nq := q.Normalize()
	r.counts.Queries.Add(1)
	r.mu.Lock()
	container := r.findContainerLocked(nq)
	if container == nil {
		r.mu.Unlock()
		r.counts.Misses.Add(1)
		return nil, false, ""
	}
	owned := r.ownerDNs[ownerKey(container.Query)]
	norms := make([]string, 0, len(owned))
	for norm := range owned {
		norms = append(norms, norm)
	}
	r.mu.Unlock()
	r.counts.Hits.Add(1)

	for _, norm := range norms {
		if held, ok := r.store.Held(norm); ok && nq.Selects(held) {
			entries = append(entries, held.Clone().Select(nq.Attrs))
		}
	}
	if r.overlay != nil {
		entries = r.overlay(nq, entries)
	}
	r.counts.EntriesReturned.Add(int64(len(entries)))
	return entries, true, container.Query.String()
}

// SetReadOverlay installs the pending-edge-write projection applied to
// every Answer hit (see internal/edgewrite.Writer.Overlay). Install during
// wiring, before concurrent readers exist; nil removes it.
func (r *FilterReplica) SetReadOverlay(overlay func(q query.Query, entries []*entry.Entry) []*entry.Entry) {
	r.overlay = overlay
}

// findContainerLocked locates a stored query semantically containing nq.
// Same-template stored queries are checked first (Proposition 3 via the
// checker's fast path), then the remaining templates.
func (r *FilterReplica) findContainerLocked(nq query.Query) *StoredQuery {
	tpl := nq.Template()
	if list, ok := r.stored[tpl]; ok {
		for _, sq := range list {
			r.counts.ContainmentChecks.Add(1)
			if r.checker.QueryContains(nq, sq.Query) {
				return sq
			}
		}
	}
	for t, list := range r.stored {
		if t == tpl {
			continue
		}
		for _, sq := range list {
			r.counts.ContainmentChecks.Add(1)
			if r.checker.QueryContains(nq, sq.Query) {
				return sq
			}
		}
	}
	return nil
}

// ownerID stands for an owner key in the per-entry owner sets. Ids are never
// reused, so a set can never take a new owner for one it forgot to drop.
type ownerID uint64

// ownerSet is the set of owners covering one entry: almost always exactly
// one, held inline, so that an entry's bookkeeping is its slot in refs and
// nothing on the heap. The zero value is the empty set; first is zero only
// then.
type ownerSet struct {
	first ownerID
	rest  []ownerID
}

func (s ownerSet) has(id ownerID) bool {
	return id != 0 && (s.first == id || slices.Contains(s.rest, id))
}

// with returns the set with id in it.
func (s ownerSet) with(id ownerID) ownerSet {
	switch {
	case s.first == 0:
		s.first = id
	case !s.has(id):
		s.rest = append(s.rest, id)
	}
	return s
}

// without returns the set with id out of it.
func (s ownerSet) without(id ownerID) ownerSet {
	if i := slices.Index(s.rest, id); i >= 0 {
		s.rest = slices.Delete(s.rest, i, i+1)
	} else if s.first == id {
		s.first = 0
		if n := len(s.rest); n > 0 {
			s.first, s.rest = s.rest[n-1], s.rest[:n-1]
		}
	}
	return s
}

// addRefLocked records that owner key covers the entry at d.
func (r *FilterReplica) addRefLocked(key string, d dn.DN) {
	id, ok := r.ownerIDs[key]
	if !ok {
		r.lastID++
		id = r.lastID
		r.ownerIDs[key] = id
	}
	norm := d.Norm()
	r.refs[norm] = r.refs[norm].with(id)
	if r.ownerDNs[key] == nil {
		r.ownerDNs[key] = make(map[string]bool)
	}
	r.ownerDNs[key][norm] = true
}

// delRefLocked releases one owner's claim and reports whether that was the
// last reference: the caller must then remove the entry from the store.
func (r *FilterReplica) delRefLocked(key, norm string) (last bool) {
	if set, ok := r.refs[norm]; ok {
		if set = set.without(r.ownerIDs[key]); set.first == 0 {
			delete(r.refs, norm)
			last = true
		} else {
			r.refs[norm] = set
		}
	}
	if set, ok := r.ownerDNs[key]; ok {
		delete(set, norm)
	}
	return last
}

// dropOwnerLocked releases every claim of one owner and removes, as one
// batch, the entries nobody else covers.
func (r *FilterReplica) dropOwnerLocked(key string) {
	var ops []dit.SyncOp
	for norm := range r.ownerDNs[key] {
		if r.delRefLocked(key, norm) {
			if e, ok := r.store.Held(norm); ok {
				ops = append(ops, dit.SyncOp{Remove: e.DN()})
			}
		}
	}
	delete(r.ownerDNs, key)
	delete(r.ownerIDs, key)
	_ = r.store.ApplyOwned(ops) // removals of held entries cannot fail
}

// Counters exposes the replica's answer counters; callers may read them
// concurrently.
func (r *FilterReplica) Counters() *metrics.AnswerCounters { return &r.counts }

// EntryCount returns the number of entries held.
func (r *FilterReplica) EntryCount() int { return r.store.Len() }

// StoredCount returns the number of replicated (synced) queries.
func (r *FilterReplica) StoredCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, l := range r.stored {
		n += len(l)
	}
	return n
}

// Store exposes the content store (read-mostly; used by experiments).
func (r *FilterReplica) Store() *dit.Store { return r.store }

// ownerKey is the canonical identity of a query used for reference
// counting.
func ownerKey(q query.Query) string { return q.Key() }
