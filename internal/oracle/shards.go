package oracle

// Shard sweep: the sharded DIT store must be observationally identical to
// the single-shard store. The sweep (RunShardSweep, beside its tests)
// replays the SAME engine-level oracle histories (the Flat, Cascade and Edge
// presets) at several shard counts and asserts that the two fingerprints
// this file folds agree bit-for-bit at every count:
//
//   - TrafficHash: every update PDU the harness observed, folded in order —
//     shard routing must never reorder, duplicate, or reword wire traffic;
//   - ContentHash: every replica's final content plus the master store at
//     the end of each history — shard routing must never change what
//     converges.
//
// The sweep is only meaningful because history generation is
// shard-oblivious (generators call synthConfig with shards=0) and all
// multi-entry store reads return DN-sorted results regardless of which
// shard each entry lives on.

import (
	"sort"

	"filterdir/internal/entry"
	"filterdir/internal/resync"
)

// FNV-1a, folded incrementally so hashes chain across histories.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func foldString(h uint64, s string) uint64 {
	if h == 0 {
		h = fnvOffset64
	}
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	// Fold a terminator so ("ab","c") and ("a","bc") differ.
	h ^= 0xff
	h *= fnvPrime64
	return h
}

// foldUpdates folds one exchange's update PDUs in wire order.
func foldUpdates(h uint64, ups []resync.Update) uint64 {
	for _, u := range ups {
		h = foldString(h, u.Action.String())
		h = foldString(h, u.DN.Norm())
		if u.IsMove() {
			h = foldString(h, u.OldDN.Norm())
		}
		if u.Entry != nil {
			h = foldString(h, u.Entry.String())
		}
	}
	return h
}

// foldContent folds a replica content map in normalized-DN order.
func foldContent(h uint64, m model) uint64 {
	norms := make([]string, 0, len(m))
	for norm := range m {
		norms = append(norms, norm)
	}
	sort.Strings(norms)
	for _, norm := range norms {
		h = foldString(h, norm)
		h = foldString(h, m[norm].String())
	}
	return h
}

// foldEntries folds an already-ordered entry list (e.g. Store.All()).
func foldEntries(h uint64, entries []*entry.Entry) uint64 {
	for _, e := range entries {
		h = foldString(h, e.String())
	}
	return h
}
