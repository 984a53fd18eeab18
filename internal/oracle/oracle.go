// Package oracle is a deterministic, seed-replayable model-checking harness
// for the ReSync protocol: it generates random operation histories over the
// synthetic DIT (internal/sim), interleaved with poll / persist / retain /
// sync_end session events and fault schedules, maintains a brute-force
// reference model of what each filter's replica content must be, and drives
// the real stack with them.
//
// One driver (Run) runs every tier. A tier is a Preset: a history
// generator, a topology and the checks only that tier makes. The engine
// presets (Flat, Cascade, Edge) drive in-process resync.Engines event by
// event through one consumer exchange (exchange.go); the wire presets (Wire,
// CascadeWire, Resume, Adaptive) stand up ldapnet masters, cascade tiers and
// supervised replicas on loopback (wire.go).
//
// After every sync point a preset asserts that replica content equals the
// reference selection and that update traffic never exceeds the minimal net
// set except via legal retain actions. On failure the driver shrinks the
// history to a minimal reproducing sequence (shrink.go).
package oracle

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/entry"
	"filterdir/internal/query"
	"filterdir/internal/resync"
	"filterdir/internal/sim"
)

// Config parameterizes a run of any preset; a preset ignores the fields it
// has no use for.
type Config struct {
	// Seed derives every history; equal seeds replay equal runs.
	Seed int64
	// Histories is the number of independent histories to check.
	Histories int
	// Steps is the number of generated events per history (a few final
	// exchanges are appended so every history ends with a convergence
	// check); for Adaptive, the master operations of each phase.
	Steps int
	// Specs overrides Flat's and Wire's replicated content specifications,
	// e.g. with many sessions over one shared filter to exercise the
	// content-group fan-out layer. Empty means specs().
	Specs []query.Query
	// BeginTogether makes every Flat replica Begin before the first event,
	// all at one store CSN — replicas re-Beginning at once after a master
	// restart — so that members of one content group are served from one
	// reload snapshot. Off, a replica begins at its first exchange.
	BeginTogether bool
	// Shards overrides the master store's shard count (0 = store default).
	// Histories are shard-oblivious: the shard sweep (shards.go) replays the
	// same seeds at several counts and asserts identical hashes.
	Shards int
	// Chaos wraps Wire's listener and dialer in a fault injector (dropped
	// connections, refused dials, latency jitter).
	Chaos bool
	// Persist runs every Wire replica in persist mode; otherwise the mode
	// alternates with the history seed.
	Persist bool
	// BreakE10 is a test-only fault injection: the simulated consumer drops
	// every delete PDU, modeling an engine that loses E10 classifications.
	// A correct oracle must detect the divergence and shrink it.
	BreakE10 bool
	// Entries is Resume's base synthetic DIT leaf count; each history grows
	// it by a seed-derived amount so chunk geometries vary.
	Entries int
	// ChunkSize is Resume's reload chunk size (0 = derived per history, 3..8).
	ChunkSize int
}

// specList resolves the run's content specifications.
func (c Config) specList() []query.Query {
	if len(c.Specs) > 0 {
		return c.Specs
	}
	return specs()
}

// Report summarizes a run. Failure is nil when every history converged.
type Report struct {
	Histories int // histories completed without divergence
	Events    int // events executed
	Polls     int // synchronization exchanges performed
	Traffic   resync.Traffic
	Failure   *Failure

	// Content-group fan-out accounting, accumulated across histories:
	// shared-interval classification reuse on the engine, and shared-PDU
	// encoding reuse on the wire (wire runs only).
	SharedClassifyHits    int64
	SharedClassifyMisses  int64
	ReloadSnapshotsBuilt  int64
	ReloadSnapshotsShared int64
	StreamEncodes         int64
	StreamDedupPDUs       int64

	// Edge-write accounting (Edge only): ops accepted at the replica, ops
	// the sequencer actually applied, and replayed forwards answered from
	// the dedup table instead of re-applied.
	EdgeAccepted   int64
	EdgeApplied    int64
	EdgeDuplicates int64

	// Shard-sweep fingerprints (shards.go): TrafficHash folds every update
	// PDU the harness observed, in order; ContentHash folds every final
	// replica content and the master store at the end of each history. Equal
	// seeds must produce equal hashes at every shard count.
	TrafficHash uint64
	ContentHash uint64
}

// A Preset is one tier of the oracle: how a history is generated, the
// topology it runs on and the checks only that tier makes. Run drives every
// preset the same way.
type Preset struct {
	// Name labels the preset's shard-sweep fingerprints.
	Name string
	gen  func(cfg Config, hseed int64) []Event
	// run executes one history, returning its first divergence; rep is nil
	// during shrinking re-runs.
	run func(cfg Config, hseed int64, events []Event, rep *Report) *Failure
	// reruns bounds shrinking's re-executions for presets whose histories
	// stand up real listeners and supervisors (0: shrinkEvents' own budget);
	// the original history is reported if shrinking stalls.
	reruns int
}

// The presets: one per tier of the oracle.
var (
	Flat        = Preset{Name: "flat", gen: genHistory, run: runFlat}
	Cascade     = Preset{Name: "cascade", gen: genCascadeHistory, run: runCascade}
	Edge        = Preset{Name: "edgewrite", gen: genEdgeHistory, run: runEdge}
	Wire        = Preset{Name: "wire", gen: genWireHistory, run: runWire, reruns: wireReruns}
	CascadeWire = Preset{Name: "cascadewire", gen: genCascadeWireHistory, run: runCascadeWire, reruns: wireReruns}
	Resume      = Preset{Name: "resume", gen: genResumeHistory, run: runResume, reruns: wireReruns}
	Adaptive    = Preset{Name: "adaptive", gen: genAdaptiveHistory, run: runAdaptive, reruns: wireReruns}
)

// wireReruns is the wire presets' shrinking budget: every re-run spins up
// real listeners and supervisors.
const wireReruns = 24

// historySeed derives the h-th history's seed, so a failing history is
// replayable in isolation with -oracle.seed=<seed> -oracle.n=1.
func historySeed(seed int64, h int) int64 { return seed + int64(h)*1_000_003 }

// synthConfig derives the synthetic-DIT shape from the history seed; every
// third seed bounds the journal so full-reload degradation is exercised.
// Shards only affects store construction — history generation must stay
// byte-identical across shard counts, so generators pass 0.
func synthConfig(hseed int64, shards int) sim.SynthConfig {
	cfg := sim.SynthConfig{Seed: hseed, Shards: shards}
	if hseed%3 == 2 || hseed%3 == -2 {
		cfg.JournalLimit = 8
	}
	return cfg
}

// synthWireConfig mirrors synthConfig but with a journal bound large
// enough that bursts between polls fit; every third seed still forces
// trim-induced full reloads under load.
func synthWireConfig(hseed int64) sim.SynthConfig {
	cfg := sim.SynthConfig{Seed: hseed}
	if hseed%3 == 2 || hseed%3 == -2 {
		cfg.JournalLimit = 32
	}
	return cfg
}

// specs returns the content specifications replicated by the oracle:
// equality, conjunctive-with-ordering, disjunctive, and substring filters,
// the last with an attribute selection so suppression of modifies confined
// to unselected attributes is exercised.
func specs() []query.Query {
	return []query.Query{
		query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(grp=1)"),
		query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(&(grp=0)(val>=2))"),
		query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(|(grp=2)(val=0))"),
		query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(cn=e*)", "cn", "grp"),
	}
}

// sharedSpecs builds the fan-out stress spec set: n replicas over ONE
// content — cycling through the plain spelling, an attribute-selected view
// of it, and a containment-equivalent (absorption) spelling — plus a final
// odd-one-out replica whose filter shares no group with the rest. The
// grouped engine must be observationally identical to per-session
// classification for every one of them.
func sharedSpecs(n int) []query.Query {
	out := make([]query.Query, 0, n+1)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			out = append(out, query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(grp=1)"))
		case 1:
			out = append(out, query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(grp=1)", "cn", "grp"))
		default:
			out = append(out, query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(|(grp=1)(&(grp=1)(val>=0)))"))
		}
	}
	return append(out, query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(&(grp=0)(val>=2))"))
}

// --- Reference model ------------------------------------------------------

// model is content by normalized DN. The brute-force reference is a model
// of the whole DIT, maintained by replaying the same operations applied to
// the real store, using the same entry constructors (sim.SynthEntry); a
// consumer's content and a snapshot of any store are models too.
type model map[string]*entry.Entry

// snapshot is a store's content (Store.All hands out copies): the
// reference's starting point, or what a replica holds.
func snapshot(st *dit.Store) model {
	m := make(model)
	for _, e := range st.All() {
		m[e.DN().Norm()] = e
	}
	return m
}

// valid reports whether the operation applies to the current state; ops
// invalidated by shrinking (e.g. a modify whose add was removed) are
// skipped on both the store and the model.
func (m model) valid(op sim.Op) bool {
	_, ok := m[op.DN().Norm()]
	switch op.Kind {
	case sim.OpAdd:
		return !ok
	case sim.OpDelete, sim.OpModify:
		return ok
	case sim.OpModDN:
		_, newOk := m[op.NewDN().Norm()]
		return ok && !newOk
	}
	return false
}

// apply mutates the model exactly as dit.Store applies the operation.
func (m model) apply(op sim.Op) {
	norm := op.DN().Norm()
	switch op.Kind {
	case sim.OpAdd:
		m[norm] = sim.SynthEntry(op.Name, op.Grp, op.Val)
	case sim.OpDelete:
		delete(m, norm)
	case sim.OpModify:
		e := m[norm].Clone()
		e.Put("grp", strconv.Itoa(op.Grp))
		e.Put("val", strconv.Itoa(op.Val))
		m[norm] = e
	case sim.OpModDN:
		e := m[norm].Clone()
		delete(m, norm)
		e.SetDN(op.NewDN())
		e.Put("cn", op.NewName) // store updates the naming attribute
		m[op.NewDN().Norm()] = e
	}
}

// selection computes the reference replica content for a set of specs (one
// replica's spec, or a tier's stored set): the selected views of every
// model entry in a spec's base/scope region matching its filter.
func (m model) selection(specs ...query.Query) model {
	out := make(model)
	for _, spec := range specs {
		for norm, e := range m {
			if !spec.InScope(e.DN()) {
				continue
			}
			if spec.Filter != nil && !spec.Filter.Matches(e) {
				continue
			}
			out[norm] = e.Select(spec.Attrs)
		}
	}
	return out
}

func (m model) clone() model {
	out := make(model, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// describeDiff renders the difference between replica content and the
// reference selection ("" when equal).
func describeDiff(got, want model) string {
	var lines []string
	for norm, w := range want {
		g, ok := got[norm]
		switch {
		case !ok:
			lines = append(lines, fmt.Sprintf("  missing %s (want %s)", norm, w))
		case !g.Equal(w):
			lines = append(lines, fmt.Sprintf("  stale   %s:\n    got  %s\n    want %s", norm, g, w))
		}
	}
	for norm, g := range got {
		if _, ok := want[norm]; !ok {
			lines = append(lines, fmt.Sprintf("  ghost   %s (held %s, not selected)", norm, g))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// --- One history's run ----------------------------------------------------

// hist is one history's run, shared by every preset: the master store, the
// reference model of it, and where its counts go.
type hist struct {
	cfg  Config
	seed int64
	rep  *Report // accumulates stats; nil during shrinking re-runs
	st   *dit.Store
	mdl  model
}

// newHist starts a history over a master store built from sc.
func newHist(cfg Config, hseed int64, rep *Report, sc sim.SynthConfig) (*hist, *Failure) {
	h := &hist{cfg: cfg, seed: hseed, rep: rep}
	st, err := sim.BuildSynthStore(sc)
	if err != nil {
		return nil, h.fail("build synthetic store: %v", err)
	}
	h.st, h.mdl = st, snapshot(st)
	return h, nil
}

func (h *hist) fail(format string, args ...any) *Failure {
	return &Failure{HistorySeed: h.seed, Msg: fmt.Sprintf(format, args...)}
}

// op applies one operation to the master and the reference model; an op
// shrinking invalidated is skipped on both.
func (h *hist) op(op sim.Op) *Failure {
	if !h.mdl.valid(op) {
		return nil
	}
	if err := sim.ApplyOp(h.st, op); err != nil {
		return h.fail("op %q valid in model but rejected by store: %v", op, err)
	}
	h.mdl.apply(op)
	return nil
}

// play executes the events in order — operations itself, every other kind
// through the preset's exec — counting them and stamping the step of the
// first divergence.
func (h *hist) play(events []Event, exec func(Event) *Failure) *Failure {
	for i, ev := range events {
		if h.rep != nil {
			h.rep.Events++
		}
		var f *Failure
		if ev.Kind == EvOp {
			f = h.op(ev.Op)
		} else {
			f = exec(ev)
		}
		if f != nil {
			f.Step = i
			return f
		}
	}
	return nil
}

// await polls cond every 2 ms until it reports nothing left to wait for
// (""), failing with its last report once d has passed.
func (h *hist) await(what string, d time.Duration, cond func() string) *Failure {
	end := time.Now().Add(d)
	for {
		left := cond()
		if left == "" {
			return nil
		}
		if time.Now().After(end) {
			return h.fail("%s not reached within %v:\n%s", what, d, left)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// settles waits for st to hold exactly the reference selection of specs,
// asked afresh each time: a tier's stored set may change under it.
func (h *hist) settles(what string, st *dit.Store, specs func() []query.Query) *Failure {
	return h.await(what+" convergence", 15*time.Second, func() string {
		return describeDiff(snapshot(st), h.mdl.selection(specs()...))
	})
}
