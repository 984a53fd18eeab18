package dit

import (
	"maps"
	"sort"
	"strings"

	"filterdir/internal/entry"
	"filterdir/internal/filter"
)

// attrIndex is an equality + ordered-prefix index over one attribute: a map
// from normalized value to the set of entry DNs carrying it, plus a sorted
// value list for prefix scans. Writes append new values to a small pending
// list that is merged into the sorted list once it grows past the
// threshold — at write time, never during lookups, because lookups may run
// against a frozen (shared, immutable) index. Indexes are copy-on-write:
// clone() shares the per-value DN sets until a write privatizes them.
type attrIndex struct {
	byValue map[string]map[string]bool // norm value -> set of norm DNs
	sorted  []string                   // sorted norm values (may contain stale)
	pending []string                   // unsorted recent additions
	cow     bool                       // value sets shared with an ancestor clone
	owned   map[string]bool            // values whose DN set this index owns
}

const pendingMergeThreshold = 256

func newAttrIndex() *attrIndex {
	return &attrIndex{byValue: make(map[string]map[string]bool)}
}

// clone makes a writable copy sharing the per-value DN sets; sorted and
// pending are copied eagerly since merges mutate them in place.
func (ix *attrIndex) clone() *attrIndex {
	return &attrIndex{
		byValue: maps.Clone(ix.byValue),
		sorted:  append([]string(nil), ix.sorted...),
		pending: append([]string(nil), ix.pending...),
		cow:     true,
		owned:   make(map[string]bool),
	}
}

// set returns the writable DN set for a value, privatizing a shared one.
func (ix *attrIndex) set(v string) map[string]bool {
	s, ok := ix.byValue[v]
	if !ok {
		return nil
	}
	if ix.cow && !ix.owned[v] {
		s = maps.Clone(s)
		ix.byValue[v] = s
		ix.owned[v] = true
	}
	return s
}

func (ix *attrIndex) add(value, dnNorm string) {
	v := entry.NormValue(value)
	s := ix.set(v)
	if s == nil {
		s = make(map[string]bool)
		ix.byValue[v] = s
		if ix.cow {
			ix.owned[v] = true
		}
		ix.pending = append(ix.pending, v)
		if len(ix.pending) >= pendingMergeThreshold {
			ix.mergePending()
		}
	}
	s[dnNorm] = true
}

func (ix *attrIndex) remove(value, dnNorm string) {
	v := entry.NormValue(value)
	if s := ix.set(v); s != nil {
		delete(s, dnNorm)
		if len(s) == 0 {
			delete(ix.byValue, v)
			delete(ix.owned, v)
			// The stale value remains in sorted/pending; lookups check
			// byValue for liveness.
		}
	}
}

// lookupEQ returns the DNs carrying the value. Read-only.
func (ix *attrIndex) lookupEQ(value string) []string {
	set := ix.byValue[entry.NormValue(value)]
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	return out
}

// lookupPrefix returns the DNs whose value starts with the prefix.
// Read-only: the sorted list is binary-searched and the (bounded) pending
// list scanned linearly, so it is safe on frozen shared indexes.
func (ix *attrIndex) lookupPrefix(prefix string) []string {
	p := entry.NormValue(prefix)
	var out []string
	seen := make(map[string]bool)
	collect := func(v string) {
		if seen[v] {
			return
		}
		seen[v] = true
		for d := range ix.byValue[v] {
			out = append(out, d)
		}
	}
	for i := sort.SearchStrings(ix.sorted, p); i < len(ix.sorted); i++ {
		v := ix.sorted[i]
		if !strings.HasPrefix(v, p) {
			break
		}
		collect(v)
	}
	for _, v := range ix.pending {
		if strings.HasPrefix(v, p) {
			collect(v)
		}
	}
	return out
}

// mergePending folds pending values into the sorted list: the (bounded)
// pending run is sorted and merged in, so bulk-loading n values costs
// O(n) per merge rather than a re-sort of everything indexed so far.
// Called only from add (writer-owned index), never from lookups.
func (ix *attrIndex) mergePending() {
	if len(ix.pending) == 0 {
		return
	}
	sort.Strings(ix.pending)
	out := make([]string, 0, len(ix.sorted)+len(ix.pending))
	// Exact duplicates (value reuse after deletion leaves the stale copy
	// in sorted) are compacted as they meet.
	push := func(v string) {
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
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
		// indexable.
		seen := make(map[string]bool)
		for _, c := range f.Children {
			cands, ok := v.indexCandidates(c)
			if !ok {
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
// (each shard indexes only its own entries), so no dedup is needed.
func (v *view) lookupAll(attr string, lookup func(*attrIndex) []string) ([]string, bool) {
	var out []string
	for _, st := range v.states {
		ix, ok := st.indexes[attr]
		if !ok {
			return nil, false
		}
		out = append(out, lookup(ix)...)
	}
	return out, true
}
