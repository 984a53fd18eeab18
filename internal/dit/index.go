package dit

import (
	"maps"
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

func newAttrIndex() *attrIndex {
	return &attrIndex{byValue: make(map[string][]string)}
}

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
