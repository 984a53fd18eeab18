package dit

import (
	"maps"
	"sync"

	"filterdir/internal/entry"
)

// shard is one DN-hash partition of the store. The mutex guards the
// published state pointer, the state's frozen flag, and every mutation of
// the state's maps; it is never held across a scan. Readers either take a
// frozen multi-shard view (and then scan lock-free — frozen states are
// immutable) or read point-wise under the shard lock.
type shard struct {
	mu    sync.Mutex
	state *shardState
}

// shardState is the copy-on-write unit: the entries, child links, indexes
// and referral registry of one shard. Once a reader freezes a state it is
// never mutated again — the next write to the shard clones it first. A
// clone shares inner structures (child sets, per-attribute indexes) with
// its parent until they are written, tracked by the own* maps.
type shardState struct {
	entries   map[string]*entry.Entry    // norm DN -> entry (entries are immutable)
	children  map[string]map[string]bool // parent norm -> child norms
	indexes   map[string]*attrIndex      // indexed attr -> index
	referrals map[string]bool            // norm DNs of referral entries in this shard

	// frozen marks the state as pinned by a reader view; set under the
	// shard lock, checked by writers before mutating.
	frozen bool
	// cow marks a cloned state whose inner structures are still shared
	// with an ancestor; ownChild/ownIdx record which have been privatized.
	cow      bool
	ownChild map[string]bool
	ownIdx   map[string]bool
	// due marks that a write of the current commit batch left an index with
	// value lists past the merge threshold; the batch's end settles it
	// (Store.settleLocked), so a frozen state is never due.
	due bool
}

func newShardState(indexAttrs []string) *shardState {
	st := &shardState{
		entries:   make(map[string]*entry.Entry),
		children:  make(map[string]map[string]bool),
		indexes:   make(map[string]*attrIndex),
		referrals: make(map[string]bool),
	}
	for _, a := range indexAttrs {
		st.indexes[a] = newAttrIndex()
	}
	return st
}

// clone makes a writable copy of a frozen state: outer maps are copied,
// inner child sets and indexes stay shared until first write.
func (st *shardState) clone() *shardState {
	return &shardState{
		entries:   maps.Clone(st.entries),
		children:  maps.Clone(st.children),
		indexes:   maps.Clone(st.indexes),
		referrals: maps.Clone(st.referrals),
		cow:       true,
		ownChild:  make(map[string]bool),
		ownIdx:    make(map[string]bool),
	}
}

// childSet returns the writable child set for a parent norm, privatizing a
// shared one first. Creates the set when absent.
func (st *shardState) childSet(parentNorm string) map[string]bool {
	set, ok := st.children[parentNorm]
	if !ok {
		set = make(map[string]bool)
		st.children[parentNorm] = set
		if st.cow {
			st.ownChild[parentNorm] = true
		}
		return set
	}
	if st.cow && !st.ownChild[parentNorm] {
		set = maps.Clone(set)
		st.children[parentNorm] = set
		st.ownChild[parentNorm] = true
	}
	return set
}

// index returns the writable index for an attribute, privatizing a shared
// one first (nil when the attribute is not indexed).
func (st *shardState) index(attr string) *attrIndex {
	ix, ok := st.indexes[attr]
	if !ok {
		return nil
	}
	if st.cow && !st.ownIdx[attr] {
		ix = ix.clone()
		st.indexes[attr] = ix
		st.ownIdx[attr] = true
	}
	return ix
}

func (st *shardState) link(parentNorm, childNorm string) {
	st.childSet(parentNorm)[childNorm] = true
}

func (st *shardState) unlink(parentNorm, childNorm string) {
	if _, ok := st.children[parentNorm]; !ok {
		return
	}
	set := st.childSet(parentNorm)
	delete(set, childNorm)
	if len(set) == 0 {
		delete(st.children, parentNorm)
		delete(st.ownChild, parentNorm)
	}
}

// reindex moves the entry at norm from the postings of the attribute's old
// values to those of its current ones (nil for none), and notes when that
// leaves the index's value lists due for a merge.
func (st *shardState) reindex(attr, norm string, old, cur []string) {
	if len(old)+len(cur) == 0 {
		return // and an index nothing is written to stays shared
	}
	ix := st.index(attr)
	if ix == nil {
		return
	}
	for _, v := range old {
		ix.remove(v, norm)
	}
	for _, v := range cur {
		ix.add(v, norm)
	}
	st.due = st.due || len(ix.pending)+len(ix.dead) >= pendingMergeThreshold
}

// indexEntry registers all indexed attributes of an entry, and its referral
// class in the shard's referral registry.
func (st *shardState) indexEntry(e *entry.Entry, norm string) {
	for attr := range st.indexes {
		vals, _ := e.Lookup(attr)
		st.reindex(attr, norm, nil, vals)
	}
	if e.HasObjectClass(ReferralClass) {
		st.referrals[norm] = true
	}
}

// unindexEntry removes all indexed attributes of an entry.
func (st *shardState) unindexEntry(e *entry.Entry, norm string) {
	for attr := range st.indexes {
		vals, _ := e.Lookup(attr)
		st.reindex(attr, norm, vals, nil)
	}
	delete(st.referrals, norm)
}

// shardIndex routes a normalized DN to one of n shards (FNV-1a; stable across
// runs and shard-count-independent inputs, so replication traffic cannot
// observe the layout).
func shardIndex(norm string, n int) int {
	if n == 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(norm); i++ {
		h = (h ^ uint64(norm[i])) * 1099511628211
	}
	return int(h % uint64(n))
}

func (s *Store) shardFor(norm string) *shard {
	return s.shards[shardIndex(norm, len(s.shards))]
}

// load returns the shard's current published state. Safe for the commit
// leader (state pointers are only replaced under seqMu) and for any caller
// that immediately re-checks under the shard lock.
func (sh *shard) load() *shardState {
	sh.mu.Lock()
	st := sh.state
	sh.mu.Unlock()
	return st
}

// write runs fn against a writable state for the shard: if the published
// state is frozen it is cloned and the clone published first. Called only
// with seqMu held (one writer at a time); the shard lock is held across fn
// so point readers never observe a map mid-mutation.
func (s *Store) write(sh *shard, fn func(st *shardState)) {
	sh.mu.Lock()
	st := sh.state
	if st.frozen {
		st = st.clone()
		sh.state = st
		s.counters.ShardClones.Add(1)
	}
	fn(st)
	sh.mu.Unlock()
}

// view is a frozen multi-shard snapshot: one immutable state per shard plus
// the CSN it reflects. Scans over a view take no locks.
type view struct {
	s      *Store
	states []*shardState
	csn    CSN
}

// freeze pins the current state of every shard under the sequencer lock, so
// the view is consistent with a batch boundary: a commit leader holds seqMu
// for the whole batch, hence a view never observes half a batch and its CSN
// is exact.
func (s *Store) freeze() *view {
	v := &view{s: s, states: make([]*shardState, len(s.shards))}
	s.seqMu.Lock()
	for i, sh := range s.shards {
		sh.mu.Lock()
		sh.state.frozen = true
		v.states[i] = sh.state
		sh.mu.Unlock()
	}
	v.csn = s.nextCSN - 1
	s.seqMu.Unlock()
	s.counters.Freezes.Add(1)
	return v
}

func (v *view) stateFor(norm string) *shardState {
	return v.states[shardIndex(norm, len(v.states))]
}

func (v *view) get(norm string) (*entry.Entry, bool) {
	e, ok := v.stateFor(norm).entries[norm]
	return e, ok
}

// childrenOf returns the child-norm set of a parent (routed by the parent's
// norm; child links live on the parent's shard).
func (v *view) childrenOf(parentNorm string) map[string]bool {
	return v.stateFor(parentNorm).children[parentNorm]
}

func (v *view) len() int {
	n := 0
	for _, st := range v.states {
		n += len(st.entries)
	}
	return n
}
