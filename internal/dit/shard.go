package dit

import (
	"maps"
	"runtime"
	"sync"
	"sync/atomic"

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

// shardState is the copy-on-write unit: the entries, indexes, referral
// registry and child counts of one shard. Once a reader freezes a state it
// is never mutated again — the next write to the shard clones it first. A
// clone shares the per-attribute indexes with its parent until they are
// written, tracked by ownIdx.
type shardState struct {
	entries map[string]*entry.Entry // norm DN -> entry (entries are immutable)
	// kids counts, per parent norm DN, the entries of this shard directly
	// under it: an entry is a leaf when no shard counts a child of it.
	kids map[string]int32
	// indexes holds the declared indexes a read has asked for (nil before
	// the first, Store.buildIndexes); writers maintain those present.
	indexes   map[string]*attrIndex
	referrals map[string]bool // norm DNs of referral entries in this shard

	// frozen marks the state as pinned by a reader view; set under the
	// shard lock, checked by writers before mutating.
	frozen bool
	// ownIdx, set on a clone, records which of the indexes it shares with
	// an ancestor have been privatized.
	ownIdx map[string]bool
	// due marks that a write of the current commit batch left an index with
	// value lists past the merge threshold; the batch's end settles it
	// (Store.settleLocked), so a frozen state is never due.
	due bool
}

func newShardState() *shardState {
	return &shardState{
		entries:   make(map[string]*entry.Entry),
		kids:      make(map[string]int32),
		referrals: make(map[string]bool),
	}
}

// clone makes a writable copy of a frozen state: outer maps are copied,
// indexes stay shared until first write.
func (st *shardState) clone() *shardState {
	return &shardState{
		entries:   maps.Clone(st.entries),
		kids:      maps.Clone(st.kids),
		indexes:   maps.Clone(st.indexes),
		referrals: maps.Clone(st.referrals),
		ownIdx:    make(map[string]bool),
	}
}

// index returns the writable index for an attribute, privatizing a shared
// one first (nil when the attribute is not indexed).
func (st *shardState) index(attr string) *attrIndex {
	ix, ok := st.indexes[attr]
	if !ok {
		return nil
	}
	if st.ownIdx != nil && !st.ownIdx[attr] {
		ix = ix.clone()
		st.indexes[attr] = ix
		st.ownIdx[attr] = true
	}
	return ix
}

// reindex moves the entry at norm from the postings of the attribute's old
// values to those of its current ones (a zero view for none), and notes when
// that leaves the index's value lists due for a merge.
func (st *shardState) reindex(attr, norm string, old, cur entry.Attr) {
	if old.Len()+cur.Len() == 0 {
		return // and an index nothing is written to stays shared
	}
	ix := st.index(attr)
	if ix == nil {
		return
	}
	for i := 0; i < old.Len(); i++ {
		ix.remove(old.At(i), norm)
	}
	for i := 0; i < cur.Len(); i++ {
		ix.add(cur.At(i), norm)
	}
	st.due = st.due || len(ix.pending)+len(ix.dead) >= pendingMergeThreshold
}

// indexEntry registers all indexed attributes of an entry, and its referral
// class in the shard's referral registry.
func (st *shardState) indexEntry(e *entry.Entry, norm string) {
	for attr := range st.indexes {
		vals, _ := e.Lookup(attr)
		st.reindex(attr, norm, entry.Attr{}, vals)
	}
	if e.HasObjectClass(ReferralClass) {
		st.referrals[norm] = true
	}
}

// unindexEntry removes all indexed attributes of an entry.
func (st *shardState) unindexEntry(e *entry.Entry, norm string) {
	for attr := range st.indexes {
		vals, _ := e.Lookup(attr)
		st.reindex(attr, norm, vals, entry.Attr{})
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
	s       *Store
	states  []*shardState
	csn     CSN
	unbuilt []string // declared attributes a lookup wanted an index of and found none
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

func (v *view) get(norm string) (*entry.Entry, bool) {
	e, ok := v.states[shardIndex(norm, len(v.states))].entries[norm]
	return e, ok
}

func (v *view) len() int {
	n := 0
	for _, st := range v.states {
		n += len(st.entries)
	}
	return n
}

// forEach calls fn(0), …, fn(n-1) on at most GOMAXPROCS goroutines, the
// caller's among them, and returns once every call has. The calls must be
// independent of one another.
func forEach(n int, fn func(i int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(n, runtime.GOMAXPROCS(0)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
