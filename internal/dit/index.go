package dit

import (
	"maps"
	"runtime"
	"slices"
	"strings"

	"filterdir/internal/entry"
	"filterdir/internal/filter"
)

// attrIndex is an equality + ordered-prefix index over one attribute: a map
// from normalized value to its posting — the normalized DNs of the entries
// carrying the value, sorted, a set by binary search — plus a sorted list of
// the values for prefix scans. A value indexed on one entry, as a serial
// number or a mail address is, costs its map slot and a one-string posting.
//
// Writes record a value new to the index in a pending list, and a value whose
// last entry left in a dead list; the store merges the two into the sorted
// list at the end of a commit batch in which they have grown past the
// threshold (Store.settleLocked) — never during lookups, because lookups run
// against a frozen (shared, immutable) index, and a frozen view, which lands
// between batches, never holds lists longer than the threshold.
//
// Indexes are copy-on-write: clone() shares every posting with the frozen
// original, and the first write to a posting copies it (owned records which
// have been). Nothing a lookup returns may be modified.
type attrIndex struct {
	byValue map[string][]string // norm value -> sorted norm DNs, never empty
	sorted  []string            // sorted norm values (may contain dead ones, each also in dead)
	pending []string            // values added since the last merge, unsorted
	dead    []string            // values emptied since the last merge, unsorted
	cow     bool                // postings shared with an ancestor clone
	owned   map[string]bool     // values whose posting this index owns
}

const pendingMergeThreshold = 256

// clone makes a writable copy sharing the postings and the sorted list, which
// a merge replaces and nothing writes; the two short lists a merge sorts in
// place are copied.
func (ix *attrIndex) clone() *attrIndex {
	return &attrIndex{
		byValue: maps.Clone(ix.byValue),
		sorted:  ix.sorted,
		pending: slices.Clone(ix.pending),
		dead:    slices.Clone(ix.dead),
		cow:     true,
		owned:   make(map[string]bool),
	}
}

// shared reports whether the posting of v still belongs to an ancestor clone
// and must be copied, not written; the copy the caller then stores is owned.
func (ix *attrIndex) shared(v string) bool {
	if !ix.cow || ix.owned[v] {
		return false
	}
	ix.owned[v] = true
	return true
}

func (ix *attrIndex) add(value, dnNorm string) {
	v := entry.NormValue(value)
	p, ok := ix.byValue[v]
	if !ok {
		if ix.cow {
			ix.owned[v] = true
		}
		ix.byValue[v] = []string{dnNorm}
		ix.pending = append(ix.pending, v)
		return
	}
	i, found := slices.BinarySearch(p, dnNorm)
	if found {
		return
	}
	if ix.shared(v) {
		p = slices.Clip(p) // no room to insert in place: Insert copies
	}
	ix.byValue[v] = slices.Insert(p, i, dnNorm)
}

func (ix *attrIndex) remove(value, dnNorm string) {
	v := entry.NormValue(value)
	p := ix.byValue[v]
	i, found := slices.BinarySearch(p, dnNorm)
	if !found {
		return
	}
	if len(p) == 1 {
		delete(ix.byValue, v)
		delete(ix.owned, v)
		// The value stays in sorted (or pending) until the next merge drops
		// it; until then lookups find no posting for it.
		ix.dead = append(ix.dead, v)
		return
	}
	if ix.shared(v) {
		p = slices.Clone(p)
	}
	ix.byValue[v] = slices.Delete(p, i, i+1)
}

// lookupEQ returns the DNs carrying the value: the posting itself.
func (ix *attrIndex) lookupEQ(value string) []string {
	return ix.byValue[entry.NormValue(value)]
}

// lookupPrefix returns the DNs whose value starts with the prefix.
// Read-only: the sorted list is binary-searched and the pending list (short,
// on a frozen index) scanned linearly.
func (ix *attrIndex) lookupPrefix(prefix string) []string {
	p := entry.NormValue(prefix)
	lo, _ := slices.BinarySearch(ix.sorted, p)
	hi := lo
	for hi < len(ix.sorted) && strings.HasPrefix(ix.sorted[hi], p) {
		hi++
	}
	vals := ix.sorted[lo:hi]
	merged := false
	for _, v := range ix.pending {
		if strings.HasPrefix(v, p) {
			if !merged {
				vals, merged = slices.Clone(vals), true
			}
			vals = append(vals, v)
		}
	}
	if merged {
		// A value that died and came back sits in both lists, or twice in
		// pending.
		slices.Sort(vals)
		vals = slices.Compact(vals)
	}
	var out []string
	for _, v := range vals {
		out = append(out, ix.byValue[v]...) // no posting: a dead value
	}
	return out
}

// mergeIfDue folds the pending and dead lists into the sorted one once they
// have grown past the threshold: the two lists are sorted and merged in, so
// loading n values costs one O(n) merge per batch rather than a re-sort of
// everything indexed so far per value, and a value that no entry carries any
// more leaves the sorted list at the first merge after its death — the
// list's length follows the live values, not the history. Only the writer
// that owns the index calls it.
func (ix *attrIndex) mergeIfDue() {
	if len(ix.pending)+len(ix.dead) < pendingMergeThreshold {
		return
	}
	slices.Sort(ix.pending)
	slices.Sort(ix.dead)
	out := make([]string, 0, len(ix.sorted)+len(ix.pending))
	dead := ix.dead
	push := func(v string) {
		if len(out) > 0 && out[len(out)-1] == v {
			return // died, came back and was recorded again
		}
		for len(dead) > 0 && dead[0] < v {
			dead = dead[1:]
		}
		if len(dead) > 0 && dead[0] == v {
			if _, live := ix.byValue[v]; !live {
				return
			}
		}
		out = append(out, v)
	}
	i, j := 0, 0
	for i < len(ix.sorted) && j < len(ix.pending) {
		if ix.sorted[i] <= ix.pending[j] {
			push(ix.sorted[i])
			i++
		} else {
			push(ix.pending[j])
			j++
		}
	}
	for ; i < len(ix.sorted); i++ {
		push(ix.sorted[i])
	}
	for ; j < len(ix.pending); j++ {
		push(ix.pending[j])
	}
	ix.sorted = out
	ix.pending = ix.pending[:0]
	ix.dead = ix.dead[:0]
}

// indexCandidates derives a candidate DN set from the filter using the
// view's per-shard indexes. ok is false when no index applies and the
// caller must walk the region. The candidate set is a superset of the
// matching entries (the full filter is still evaluated).
func (v *view) indexCandidates(f *filter.Node) ([]string, bool) {
	switch f.Op {
	case filter.EQ:
		if f.Neg {
			return nil, false
		}
		return v.lookupAll(f.Attr, func(ix *attrIndex) []string {
			return ix.lookupEQ(f.Value)
		})
	case filter.Substr:
		if f.Neg || f.Sub == nil || f.Sub.Initial == "" {
			return nil, false
		}
		return v.lookupAll(f.Attr, func(ix *attrIndex) []string {
			return ix.lookupPrefix(f.Sub.Initial)
		})
	case filter.And:
		// Use the smallest candidate set among indexable children.
		var best []string
		found := false
		for _, c := range f.Children {
			if cands, ok := v.indexCandidates(c); ok {
				if !found || len(cands) < len(best) {
					best, found = cands, true
				}
			}
		}
		return best, found
	case filter.Or:
		// A union is a valid candidate set only if every branch is
		// indexable: otherwise no index the branches wanted is wanted.
		seen := make(map[string]bool)
		wanted := len(v.unbuilt)
		for _, c := range f.Children {
			cands, ok := v.indexCandidates(c)
			if !ok {
				v.unbuilt = v.unbuilt[:wanted]
				return nil, false
			}
			for _, d := range cands {
				seen[d] = true
			}
		}
		out := make([]string, 0, len(seen))
		for d := range seen {
			out = append(out, d)
		}
		return out, true
	}
	return nil, false
}

// lookupAll unions one index lookup across every shard of the view; ok is
// false when the attribute is not indexed. Per-shard results are disjoint
// (each shard indexes only its own entries), so no dedup is needed. A declared
// index the view lacks (in every shard) is noted in v.unbuilt and answers empty.
func (v *view) lookupAll(attr string, lookup func(*attrIndex) []string) ([]string, bool) {
	var out []string
	for _, st := range v.states {
		ix, ok := st.indexes[attr]
		if !ok {
			if !slices.Contains(v.s.indexAttrs, attr) {
				return nil, false
			}
			v.unbuilt = append(v.unbuilt, attr)
			return nil, true
		}
		out = append(out, lookup(ix)...)
	}
	return out, true
}

// indexedView freezes a view and derives f's index candidates from it; if
// that wanted unbuilt indexes, it builds them and freezes again, so a read
// takes the path, index or scan, it would take had they always existed.
func (s *Store) indexedView(f *filter.Node) (*view, []string, bool) {
	for {
		v := s.freeze()
		cands, ok := v.indexCandidates(f)
		if len(v.unbuilt) == 0 {
			return v, cands, ok
		}
		s.buildIndexes(v.unbuilt)
	}
}

// buildIndexes builds the indexes of attrs no shard holds yet. Builds run one
// at a time, so an index is built once and a reader needing one being built
// waits for it. The builder takes a hold, freezes a view — the journal keeps
// every record after it — and builds from the view outside seqMu, every
// shard's posting of every attribute in parallel (forEach). Under seqMu
// it replays the records committed since (Before and After images, routed by
// shard, as the writers applied them) and installs the indexes in every shard:
// writers wait for that catch-up, never for the build. A Load or Durable in
// between left changes no record shows, and the build starts over.
func (s *Store) buildIndexes(attrs []string) {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	for {
		s.seqMu.Lock()
		built := s.shards[0].load().indexes // every shard holds the same ones
		attrs = slices.DeleteFunc(attrs, func(a string) bool { return built[a] != nil })
		epoch := s.unjournaled
		s.seqMu.Unlock()
		if len(attrs) == 0 {
			return
		}
		h := s.Hold(s.LastCSN()) // at or before the view's CSN
		v := s.freeze()
		if s.buildHook != nil {
			s.buildHook(attrs)
		}
		// Each (shard, attribute) posting is built from its frozen state on
		// its own, so they are built at once.
		postings := make([]*attrIndex, len(v.states)*len(attrs))
		forEach(len(postings), func(k int) {
			postings[k] = bulkIndex(v.states[k/len(attrs)], attrs[k%len(attrs)])
		})
		fresh := make([]*shardState, len(v.states))
		for i := range fresh {
			fresh[i] = &shardState{indexes: make(map[string]*attrIndex, len(attrs)), referrals: make(map[string]bool)}
			for j, a := range attrs {
				fresh[i].indexes[a] = postings[i*len(attrs)+j]
			}
		}

		s.seqMu.Lock()
		delete(s.holds, h.id)
		if s.unjournaled == epoch {
			first := s.nextCSN
			if len(s.journal) > 0 {
				first = s.journal[0].CSN
			}
			replay(fresh, s.journal[v.csn+1-first:])
			s.installLocked(fresh)
		}
		s.seqMu.Unlock()
	}
}

// replay applies journal records to fresh's indexes, then merges any due.
func replay(fresh []*shardState, recs []Change) {
	for _, c := range recs {
		if c.Before != nil {
			norm := c.Before.DN().Norm()
			fresh[shardIndex(norm, len(fresh))].unindexEntry(c.Before, norm)
		}
		if c.After != nil {
			norm := c.After.DN().Norm()
			fresh[shardIndex(norm, len(fresh))].indexEntry(c.After, norm)
		}
	}
	for _, st := range fresh {
		for _, ix := range st.indexes {
			ix.mergeIfDue()
		}
	}
}

// bulkIndex indexes the attribute over a frozen state's entries at once:
// every (value, DN) pair is collected and sorted once, which orders the
// values and, within each, its DNs. A value's posting is its run of DNs in
// one array, capped, so that a later insert copies it rather than writing
// into its neighbour's.
func bulkIndex(st *shardState, attr string) *attrIndex {
	type term struct{ v, norm string }
	terms := make([]term, 0, len(st.entries))
	n := 0
	for norm, e := range st.entries {
		// The builds take every core: a writer that wakes meanwhile gets
		// one within 512 entries, not at the scheduler's 10 ms preemption.
		if n++; n%512 == 0 {
			runtime.Gosched()
		}
		vals, _ := e.Lookup(attr)
		for i := 0; i < vals.Len(); i++ {
			terms = append(terms, term{entry.NormValue(vals.At(i)), norm})
		}
	}
	slices.SortFunc(terms, func(a, b term) int {
		if c := strings.Compare(a.v, b.v); c != 0 {
			return c
		}
		return strings.Compare(a.norm, b.norm)
	})
	terms = slices.Compact(terms) // two values of one entry normalizing alike
	values := 0
	for i := range terms {
		if i == 0 || terms[i].v != terms[i-1].v {
			values++
		}
	}
	ix := &attrIndex{byValue: make(map[string][]string, values), sorted: make([]string, 0, values)}
	norms := make([]string, len(terms))
	for lo := 0; lo < len(terms); {
		hi := lo
		for ; hi < len(terms) && terms[hi].v == terms[lo].v; hi++ {
			norms[hi] = terms[hi].norm
		}
		ix.byValue[terms[lo].v] = norms[lo:hi:hi]
		ix.sorted = append(ix.sorted, terms[lo].v)
		lo = hi
	}
	return ix
}

// installLocked puts the fresh indexes into every shard's live state in a new
// map. A frozen state is replaced by a frozen copy sharing its other maps, so
// the next write clones it as it would have anyway. Callers hold seqMu.
func (s *Store) installLocked(fresh []*shardState) {
	for i, sh := range s.shards {
		sh.mu.Lock()
		st := sh.state
		if st.frozen {
			cp := *st
			st, sh.state = &cp, &cp
		}
		idx := make(map[string]*attrIndex, len(st.indexes)+len(fresh[i].indexes))
		maps.Copy(idx, st.indexes)
		maps.Copy(idx, fresh[i].indexes)
		st.indexes = idx
		if st.ownIdx != nil && !st.frozen {
			for a := range fresh[i].indexes {
				st.ownIdx[a] = true
			}
		}
		sh.mu.Unlock()
	}
}
