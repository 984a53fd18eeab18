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
	"filterdir/internal/dit"
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

func newFilterNode(eng *resync.Engine, checker *containment.Checker, cacheCap int) (*filterNode, error) {
	var opts []replica.FROption
	opts = append(opts, replica.WithContentIndexes("serialnumber", "mail", "dept", "location"))
	if checker != nil {
		opts = append(opts, replica.WithChecker(checker))
	}
	if cacheCap > 0 {
		opts = append(opts, replica.WithCacheCapacity(cacheCap))
	}
	fr, err := replica.NewFilterReplica(opts...)
	if err != nil {
		return nil, err
	}
	// The experiments drive selection explicitly (ApplyDelta), so no
	// selector is attached here.
	return replica.NewAdaptiveReplica(fr, nil, eng), nil
}

// --- Subtree-replica node -----------------------------------------------------

// subtreeNode bundles a subtree replica with one ReSync session per
// replicated context for uniform traffic accounting.
type subtreeNode struct {
	replica *replica.SubtreeReplica
	eng     *resync.Engine
	cookies []string
	specs   []query.Query

	SyncTraffic resync.Traffic
}

// newSubtreeNode replicates the given subtree suffixes in full.
func newSubtreeNode(eng *resync.Engine, suffixes []dn.DN) (*subtreeNode, error) {
	ctxs := make([]dit.Context, len(suffixes))
	for i, s := range suffixes {
		ctxs[i] = dit.Context{Suffix: s}
	}
	sr, err := replica.NewSubtreeReplica(ctxs)
	if err != nil {
		return nil, err
	}
	n := &subtreeNode{replica: sr, eng: eng}
	for _, s := range suffixes {
		spec := query.Query{Base: s, Scope: query.ScopeSubtree}
		res, err := eng.Begin(spec)
		if err != nil {
			return nil, err
		}
		// Initial load: parents before children.
		updates := res.Updates
		sort.Slice(updates, func(i, j int) bool {
			return updates[i].DN.Depth() < updates[j].DN.Depth()
		})
		for _, u := range updates {
			if err := sr.Store().Upsert(u.Entry); err != nil {
				return nil, err
			}
		}
		n.cookies = append(n.cookies, res.Cookie)
		n.specs = append(n.specs, spec)
	}
	return n, nil
}

// SyncAll polls every context session, adopting each returned cookie —
// presenting it on the next poll acknowledges this exchange.
func (n *subtreeNode) SyncAll() error {
	for i, cookie := range n.cookies {
		res, err := n.eng.Poll(cookie)
		if err != nil {
			return err
		}
		n.cookies[i] = res.Cookie
		ap := resync.NewApplier(n.replica.Store())
		if err := ap.Apply(n.specs[i], res); err != nil {
			return err
		}
		n.SyncTraffic.Merge(ap.Traffic)
	}
	return nil
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
