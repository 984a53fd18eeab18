package oracle

// Shard sweep: the sharded DIT store must be observationally identical to
// the single-shard store. This file replays the SAME engine-level oracle
// histories (the Flat, Cascade and Edge presets) at several shard counts
// and asserts two fingerprints agree bit-for-bit at every count:
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
	"fmt"
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

// ShardPoint is one (runner, shard count) measurement.
type ShardPoint struct {
	Runner      string
	Shards      int
	TrafficHash uint64
	ContentHash uint64
}

// ShardSweepReport carries every measurement plus the first failure — a
// divergence inside a runner, or a hash mismatch across shard counts.
type ShardSweepReport struct {
	Points  []ShardPoint
	Failure *Failure
}

// RunShardSweep replays identical Flat, Cascade and Edge histories at each
// shard count and asserts byte-identical traffic and final content. Any
// mismatch names the preset and both hash pairs.
func RunShardSweep(cfg Config, shards []int) *ShardSweepReport {
	out := &ShardSweepReport{}
	for _, p := range []Preset{Flat, Cascade, Edge} {
		var base ShardPoint
		for i, n := range shards {
			c := cfg
			c.Shards = n
			rep := Run(p, c)
			if rep.Failure != nil {
				out.Failure = rep.Failure
				return out
			}
			pt := ShardPoint{Runner: p.Name, Shards: n, TrafficHash: rep.TrafficHash, ContentHash: rep.ContentHash}
			out.Points = append(out.Points, pt)
			if i == 0 {
				base = pt
				continue
			}
			if pt.TrafficHash != base.TrafficHash {
				out.Failure = &Failure{HistorySeed: cfg.Seed, Msg: fmt.Sprintf(
					"%s runner: wire traffic diverges across shard counts: shards=%d hash=%016x, shards=%d hash=%016x",
					p.Name, base.Shards, base.TrafficHash, pt.Shards, pt.TrafficHash)}
				return out
			}
			if pt.ContentHash != base.ContentHash {
				out.Failure = &Failure{HistorySeed: cfg.Seed, Msg: fmt.Sprintf(
					"%s runner: final content diverges across shard counts: shards=%d hash=%016x, shards=%d hash=%016x",
					p.Name, base.Shards, base.ContentHash, pt.Shards, pt.ContentHash)}
				return out
			}
		}
	}
	return out
}
