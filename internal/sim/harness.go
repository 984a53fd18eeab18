// Package sim is the experiment harness: it wires the synthetic directory,
// the trace generators, the two replica models, ReSync synchronization and
// filter selection into the scenarios that regenerate every table and
// figure of the paper's evaluation (Section 7). Each experiment returns a
// metrics.Figure whose series carry the same quantities the paper plots.
package sim

import (
	"fmt"
	"sort"

	"filterdir/internal/containment"
	"filterdir/internal/dn"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
	"filterdir/internal/workload"
)

// Config sizes the experiments. The defaults keep `go test` fast; cmd/dirsim
// raises them for full runs.
type Config struct {
	// Employees is the directory population.
	Employees int
	// MeasureQueries is the number of queries per measured point.
	MeasureQueries int
	// WarmupQueries feed the selector before measurement.
	WarmupQueries int
	// BudgetFractions are the replica-size sweep points (fraction of person
	// entries).
	BudgetFractions []float64
	// Updates is the master-side update count for traffic experiments.
	Updates int
	// Seed shifts all generator seeds.
	Seed int64
	// PayloadBytes pads employee entries (entry ≈ 6 KB in the paper).
	PayloadBytes int
}

// DefaultConfig returns the test-scale configuration.
func DefaultConfig() Config {
	return Config{
		Employees:       4000,
		MeasureQueries:  4000,
		WarmupQueries:   4000,
		BudgetFractions: []float64{0.02, 0.05, 0.10, 0.20, 0.35},
		Updates:         2000,
		Seed:            1,
		PayloadBytes:    256,
	}
}

// env is one built experiment environment.
type env struct {
	cfg Config
	dir *workload.Directory
	eng *resync.Engine
	upd *workload.Updater
}

// updater returns the environment's single update stream (created lazily;
// a second stream with the same seed would replay colliding entry names).
func (e *env) updater() *workload.Updater {
	if e.upd == nil {
		ucfg := workload.DefaultUpdateConfig()
		ucfg.Seed = e.cfg.Seed + 1000
		e.upd = workload.NewUpdater(e.dir, ucfg)
	}
	return e.upd
}

func buildEnv(cfg Config) (*env, error) {
	dcfg := workload.DefaultDirectoryConfig(cfg.Employees)
	dcfg.Seed = cfg.Seed
	dcfg.PayloadBytes = cfg.PayloadBytes
	dir, err := workload.BuildDirectory(dcfg)
	if err != nil {
		return nil, fmt.Errorf("build directory: %w", err)
	}
	return &env{cfg: cfg, dir: dir, eng: resync.NewEngine(dir.Master)}, nil
}

func (e *env) traceConfig() workload.TraceConfig {
	tc := workload.DefaultTraceConfig()
	tc.Seed = e.cfg.Seed + 100
	return tc
}

// sizeOf counts the entries a candidate filter matches on the master.
func (e *env) sizeOf(q query.Query) int {
	return len(e.dir.Master.MatchAll(q))
}

// --- Filter-replica node ----------------------------------------------------

// filterNode is the experiment-side handle for an adaptive filter replica:
// the library type already separates the two update-traffic components of
// Section 7.3 (resync traffic for stored filters, fetch traffic from
// revolutions bringing in new filters).
type filterNode = replica.AdaptiveReplica

func newFilterNode(eng *resync.Engine, checker *containment.Checker) (*filterNode, error) {
	var opts []replica.FROption
	opts = append(opts, replica.WithContentIndexes("serialnumber", "mail", "dept", "location"))
	if checker != nil {
		opts = append(opts, replica.WithChecker(checker))
	}
	fr, err := replica.NewFilterReplica(opts...)
	if err != nil {
		return nil, err
	}
	// The experiments drive selection explicitly (ApplyDelta), so no
	// selector is attached here.
	return replica.NewAdaptiveReplica(fr, nil, eng), nil
}

// --- User-query window -----------------------------------------------------

// userWindow is Section 7.4's window of recently performed user queries,
// the comparison series of figures 8 and 9 and of the mail case: a FIFO of
// at most size > 0 normalized queries, never synchronized. A query the
// node's replica misses is a window hit when a cached query contains it,
// decided by the checker that replica uses, so the decisions run in the
// order one replica holding both would run them. The window keeps no
// entries: no experiment reads an answer from it.
type userWindow struct {
	checker *containment.Checker
	size    int
	queries []query.Query
}

// serve reports whether a cached query contains q, checking the oldest
// first, and caches q when none does — as a proxy would, once the master
// has answered it.
func (w *userWindow) serve(q query.Query) bool {
	nq := q.Normalize()
	for _, cq := range w.queries {
		if w.checker.QueryContains(nq, cq) {
			return true
		}
	}
	w.add(nq)
	return false
}

// add caches the normalized query nq, evicting the oldest when the window
// is full; a query already cached (same Key) is a no-op.
func (w *userWindow) add(nq query.Query) {
	key := nq.Key()
	for _, cq := range w.queries {
		if cq.Key() == key {
			return
		}
	}
	if len(w.queries) >= w.size {
		w.queries = w.queries[1:]
	}
	w.queries = append(w.queries, nq)
}

// --- Subtree-replica node -----------------------------------------------------

// newSubtreeNode is the paper's subtree baseline (Section 3.4.1): a filter
// node replicating each given subtree whole, as the stored query (suffix,
// subtree, match-all). No context the experiments build has subordinate
// referrals, and for such a context isContained(b, C) is exactly query
// containment in that stored query. Its update traffic is ResyncTraffic.
func newSubtreeNode(eng *resync.Engine, suffixes []dn.DN) (*filterNode, error) {
	node, err := newFilterNode(eng, nil)
	if err != nil {
		return nil, err
	}
	for _, s := range suffixes {
		if err := node.AddFilter(query.Query{Base: s, Scope: query.ScopeSubtree}); err != nil {
			return nil, err
		}
	}
	return node, nil
}

// subtreeCand is one subtree a subtree replica could hold, with its size
// and observed access share.
type subtreeCand struct {
	Suffix dn.DN
	Size   int
	Share  float64
}

// pickSubtrees greedily selects whole subtrees by access-share / size ratio
// under an entry budget — the best a subtree replica can do, since it
// cannot replicate part of a flat container (Section 3.3).
func pickSubtrees(cands []subtreeCand, budget int) []dn.DN {
	sorted := append([]subtreeCand(nil), cands...)
	sort.Slice(sorted, func(i, j int) bool {
		ri := sorted[i].Share / float64(sorted[i].Size)
		rj := sorted[j].Share / float64(sorted[j].Size)
		if ri != rj {
			return ri > rj
		}
		if sorted[i].Size != sorted[j].Size {
			return sorted[i].Size < sorted[j].Size
		}
		return sorted[i].Suffix.Norm() < sorted[j].Suffix.Norm()
	})
	var out []dn.DN
	used := 0
	for _, c := range sorted {
		if c.Size <= 0 || used+c.Size > budget {
			continue
		}
		out = append(out, c.Suffix)
		used += c.Size
	}
	return out
}

// countryCands derives the country-subtree candidates with access shares
// measured from a sample trace of people queries.
func countryCands(dir *workload.Directory, sample []workload.TraceQuery) []subtreeCand {
	counts := make(map[string]int)
	total := 0
	for _, tq := range sample {
		if tq.Kind != workload.KindSerial && tq.Kind != workload.KindMail {
			continue
		}
		vals := tq.Query.Filter.SlotValues()
		if len(vals) == 0 {
			continue
		}
		total++
		if tq.Kind == workload.KindSerial && len(vals[0]) >= 2 {
			counts[vals[0][:2]]++ // serial country code
		}
	}
	out := make([]subtreeCand, 0, len(dir.Config.Countries))
	for ci, c := range dir.Config.Countries {
		code := fmt.Sprintf("%02d", ci+10)
		share := 0.0
		if total > 0 {
			share = float64(counts[code]) / float64(total)
		}
		out = append(out, subtreeCand{
			Suffix: dn.MustParse(fmt.Sprintf("c=%s,%s", c.Code, workload.Suffix)),
			Size:   c.Employees + 1,
			Share:  share,
		})
	}
	return out
}

// divisionCands derives the division-subtree candidates with access shares
// measured from a sample trace of department queries.
func divisionCands(dir *workload.Directory, sample []workload.TraceQuery) []subtreeCand {
	counts := make(map[string]int)
	total := 0
	for _, tq := range sample {
		if tq.Kind != workload.KindDept {
			continue
		}
		vals := tq.Query.Filter.SlotValues()
		if len(vals) < 2 {
			continue
		}
		total++
		counts[vals[1]]++ // div slot of (&(dept=_)(div=_))
	}
	out := make([]subtreeCand, 0, len(dir.Divisions))
	for di, name := range dir.Divisions {
		share := 0.0
		if total > 0 {
			share = float64(counts[name]) / float64(total)
		}
		out = append(out, subtreeCand{
			Suffix: dn.MustParse(fmt.Sprintf("ou=%s,ou=divisions,%s", name, workload.Suffix)),
			Size:   len(dir.ByDivision[di]) + 1,
			Share:  share,
		})
	}
	return out
}
