package oracle

import (
	"flag"
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Sweep controls; see `make oracle`. A failing history prints its own
// one-line replay command using these flags.
var (
	oracleSeed  = flag.Int64("oracle.seed", 42, "base seed for oracle histories")
	oracleN     = flag.Int("oracle.n", 0, "number of sweep histories (0 skips the sweep tests; quick tests run their own count)")
	oracleSteps = flag.Int("oracle.steps", 80, "events per sweep history")
)

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

// wireReruns is the wire presets' shrinking budget: every re-run spins up
// real listeners and supervisors.
const wireReruns = 24

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

// tier is how one oracle test configures its preset from the sweep flags:
// the seed is -oracle.seed; a quick test runs its own history count, or
// -oracle.n histories when that is set (a replay); a sweep runs -oracle.n
// histories, or one per perN of them, and is skipped without it.
type tier struct {
	preset Preset
	quick  int
	perN   int
	config func(steps int) Config // all but Seed and Histories
}

func fixed(c Config) func(int) Config { return func(int) Config { return c } }

func stepsFlag(steps int) Config { return Config{Steps: steps} }

// tiers is every oracle test by name. The shard sweeps run the Flat,
// Cascade and Edge presets (RunShardSweep), so their preset is unset.
var tiers = map[string]tier{
	"TestOracleQuick":                 {preset: Flat, quick: 12, config: fixed(Config{Steps: 40})},
	"TestOracleSweep":                 {preset: Flat, config: stepsFlag},
	"TestOracleDetectsDroppedDeletes": {preset: Flat, quick: 8, config: fixed(Config{Steps: 60, BreakE10: true})},
	"TestOracleSharedFilterHistories": {preset: Flat, quick: 10, config: fixed(Config{Steps: 50, Specs: sharedSpecs(5), BeginTogether: true})},
	"TestOracleQuickWire":             {preset: Wire, quick: 2, config: fixed(Config{Steps: 12, Chaos: true})},
	"TestOracleWireSweep":             {preset: Wire, perN: 50, config: func(s int) Config { return Config{Steps: s / 3, Chaos: true} }},
	"TestOracleSharedFilterWireDedup": {preset: Wire, quick: 1, config: fixed(Config{Steps: 24, Specs: sharedSpecs(4), Persist: true})},
	"TestOracleCascadeQuick":          {preset: Cascade, quick: 10, config: fixed(Config{Steps: 40})},
	"TestOracleCascadeSweep":          {preset: Cascade, config: stepsFlag},
	"TestOracleCascadeQuickWire":      {preset: CascadeWire, quick: 1, config: fixed(Config{Steps: 18})},
	"TestOracleCascadeWireSweep":      {preset: CascadeWire, perN: 50, config: func(s int) Config { return Config{Steps: s / 4} }},
	"TestOracleEdgeWriteQuick":        {preset: Edge, quick: 10, config: fixed(Config{Steps: 50})},
	"TestOracleEdgeWriteSweep":        {preset: Edge, config: stepsFlag},
	"TestOracleShardSweep":            {quick: 6, config: fixed(Config{Steps: 40})},
	"TestOracleShardSweepFull":        {perN: 9, config: stepsFlag},
	"TestOracleResumeQuick":           {preset: Resume, quick: 2, config: fixed(Config{Entries: 15})},
	"TestOracleResumeSweep":           {preset: Resume, perN: 25, config: fixed(Config{Entries: 60})},
	"TestOracleAdaptiveQuick":         {preset: Adaptive, quick: 1, config: fixed(Config{Steps: 20})},
	"TestOracleAdaptiveSweep":         {preset: Adaptive, perN: 25, config: func(s int) Config { return Config{Steps: s / 2} }},
}

// config is the configuration test name runs under the given sweep flags.
func config(name string, seed int64, n, steps int) Config {
	tr := tiers[name]
	cfg := tr.config(steps)
	cfg.Seed = seed
	switch {
	case n <= 0:
		cfg.Histories = tr.quick
	case tr.perN > 0:
		cfg.Histories = (n + tr.perN - 1) / tr.perN
	default:
		cfg.Histories = n
	}
	return cfg
}

// replayLine is the command that reruns history hseed of test name alone.
func replayLine(name string, hseed int64) string {
	return fmt.Sprintf("go test ./internal/oracle -run '^%s$' -oracle.seed=%d -oracle.n=1 -oracle.steps=%d",
		name, hseed, *oracleSteps)
}

// flagConfig is the calling test's configuration under the sweep flags; it
// skips a sweep that -oracle.n did not enable.
func flagConfig(t *testing.T) Config {
	cfg := config(t.Name(), *oracleSeed, *oracleN, *oracleSteps)
	if cfg.Histories == 0 {
		t.Skip("sweep disabled; run via make oracle or -oracle.n=N")
	}
	return cfg
}

// fail fails the test with the divergence, its shrunk history and the line
// that replays it.
func fail(t *testing.T, f *Failure) {
	t.Helper()
	f.Replay = replayLine(t.Name(), f.HistorySeed)
	t.Fatal(f.Format())
}

// runTier runs the calling test's preset under the sweep flags.
func runTier(t *testing.T) *Report {
	t.Helper()
	rep := Run(tiers[t.Name()].preset, flagConfig(t))
	if rep.Failure != nil {
		fail(t, rep.Failure)
	}
	return rep
}

// skipShort skips the wire-level tests in -short mode.
func skipShort(t *testing.T) {
	if testing.Short() {
		t.Skip("wire oracle skipped in -short mode")
	}
}

// TestOracleQuick is the tier-1 engine-level oracle run: a small
// deterministic batch of histories checked after every sync point.
func TestOracleQuick(t *testing.T) {
	rep := runTier(t)
	t.Logf("oracle quick: %d histories, %d events, %d exchanges, traffic %+v",
		rep.Histories, rep.Events, rep.Polls, rep.Traffic)
	pin(t, fmt.Sprintf("histories=%d events=%d exchanges=%d traffic=%+v",
		rep.Histories, rep.Events, rep.Polls, rep.Traffic))
}

// TestOracleQuickWire drives the full wire loop (ldapnet master,
// supervisor replicas, chaos injection) for two short histories — one
// poll-mode, one persist-mode.
func TestOracleQuickWire(t *testing.T) {
	skipShort(t)
	rep := runTier(t)
	t.Logf("oracle quick wire: %d histories, %d events, %d exchanges, traffic %+v",
		rep.Histories, rep.Events, rep.Polls, rep.Traffic)
}

// TestOracleSweep is the long engine-level sweep, enabled by -oracle.n.
func TestOracleSweep(t *testing.T) {
	rep := runTier(t)
	t.Logf("oracle sweep: %d histories, %d events, %d exchanges, traffic %+v",
		rep.Histories, rep.Events, rep.Polls, rep.Traffic)
}

// TestOracleWireSweep is the long wire-level sweep: one wire history per
// 50 engine histories requested (at least one).
func TestOracleWireSweep(t *testing.T) {
	rep := runTier(t)
	t.Logf("oracle wire sweep: %d histories, %d events, %d exchanges, traffic %+v",
		rep.Histories, rep.Events, rep.Polls, rep.Traffic)
}

// TestOracleCascadeQuick is the tier-1 three-tier oracle run: a mid-tier
// replica fed from the master engine serves leaves from its own engine;
// every exchange on either link is checked for exact minimality and
// convergence against its supplier, and every history ends with a
// transitive convergence check against the master's reference model.
func TestOracleCascadeQuick(t *testing.T) {
	rep := runTier(t)
	t.Logf("oracle cascade quick: %d histories, %d events, %d exchanges",
		rep.Histories, rep.Events, rep.Polls)
	pin(t, fmt.Sprintf("histories=%d events=%d exchanges=%d", rep.Histories, rep.Events, rep.Polls))
}

// TestOracleCascadeQuickWire stands up the real three-tier topology —
// ldapnet master, cascade.Tier, supervisor leaves including a rejected
// outsider — with chaos on both links.
func TestOracleCascadeQuickWire(t *testing.T) {
	skipShort(t)
	rep := runTier(t)
	t.Logf("oracle cascade wire: %d histories, %d events, %d exchanges",
		rep.Histories, rep.Events, rep.Polls)
}

// TestOracleCascadeSweep is the long three-tier engine sweep.
func TestOracleCascadeSweep(t *testing.T) {
	rep := runTier(t)
	t.Logf("oracle cascade sweep: %d histories, %d events, %d exchanges",
		rep.Histories, rep.Events, rep.Polls)
}

// TestOracleCascadeWireSweep is the long three-tier wire sweep: one wire
// history per 50 engine histories requested (at least one).
func TestOracleCascadeWireSweep(t *testing.T) {
	rep := runTier(t)
	t.Logf("oracle cascade wire sweep: %d histories, %d events, %d exchanges",
		rep.Histories, rep.Events, rep.Polls)
}

// TestOracleEdgeWriteQuick is the tier-1 edge-write oracle run: writes
// accepted at a leaf replica, journaled to a real on-disk WAL, forwarded to
// the sequencer under deterministic chaos (lost forwards, lost commit
// responses, writer crashes mid-exchange), with read-your-writes asserted
// at every step and byte-identical convergence plus exactly-once
// application asserted at the end of every history.
func TestOracleEdgeWriteQuick(t *testing.T) {
	rep := runTier(t)
	if rep.EdgeAccepted == 0 || rep.EdgeApplied == 0 {
		t.Fatalf("edge machinery never engaged: accepted=%d applied=%d", rep.EdgeAccepted, rep.EdgeApplied)
	}
	if rep.EdgeDuplicates == 0 {
		t.Error("no replayed forward ever hit the dedup table; lost-response chaos did not engage")
	}
	t.Logf("oracle edge quick: %d histories, %d events, %d exchanges, edge accepted=%d applied=%d dedup=%d",
		rep.Histories, rep.Events, rep.Polls, rep.EdgeAccepted, rep.EdgeApplied, rep.EdgeDuplicates)
	pin(t, fmt.Sprintf("histories=%d events=%d exchanges=%d accepted=%d applied=%d dedup=%d",
		rep.Histories, rep.Events, rep.Polls, rep.EdgeAccepted, rep.EdgeApplied, rep.EdgeDuplicates))
}

// TestOracleEdgeWriteSweep is the long edge-write sweep, enabled by
// -oracle.n (see `make oracle ORACLE_TESTS=TestOracleEdgeWriteSweep`).
func TestOracleEdgeWriteSweep(t *testing.T) {
	rep := runTier(t)
	t.Logf("oracle edge sweep: %d histories, %d events, %d exchanges, edge accepted=%d applied=%d dedup=%d",
		rep.Histories, rep.Events, rep.Polls, rep.EdgeAccepted, rep.EdgeApplied, rep.EdgeDuplicates)
}

// TestOracleSharedFilterHistories runs the fan-out stress spec set — many
// replicas over one shared filter (including an attribute-selected view and
// a containment-equivalent spelling) plus one odd-one-out — through the
// engine-level oracle. The grouped engine must be observationally
// indistinguishable from per-session classification: every replica
// converges at every sync point and every incremental batch stays minimal.
// The members start simultaneously, so their initial content comes from one
// shared reload snapshot per group. It also asserts the sharing actually
// engaged: classifications and reload snapshots were reused across members,
// not recomputed per session.
func TestOracleSharedFilterHistories(t *testing.T) {
	rep := runTier(t)
	if rep.SharedClassifyHits == 0 {
		t.Error("no shared-classification reuse recorded across same-filter replicas")
	}
	if rep.ReloadSnapshotsShared < int64(rep.Histories)*4 {
		t.Errorf("reload snapshots shared %d times over %d histories, want >= 4 per history (one group of 5+ members beginning together)",
			rep.ReloadSnapshotsShared, rep.Histories)
	}
	t.Logf("shared-filter oracle: %d histories, %d events, %d exchanges, classify hits/misses=%d/%d, reload snapshots built/shared=%d/%d",
		rep.Histories, rep.Events, rep.Polls, rep.SharedClassifyHits, rep.SharedClassifyMisses,
		rep.ReloadSnapshotsBuilt, rep.ReloadSnapshotsShared)
	pin(t, fmt.Sprintf("histories=%d events=%d exchanges=%d classify=%d/%d reload-snapshots=%d/%d",
		rep.Histories, rep.Events, rep.Polls, rep.SharedClassifyHits, rep.SharedClassifyMisses,
		rep.ReloadSnapshotsBuilt, rep.ReloadSnapshotsShared))
}

// TestOracleSharedFilterWireDedup drives the wire loop with persist-mode
// supervisors over the shared-filter spec set and asserts the master
// BER-encoded shared update PDUs once per view, re-sending the bytes to the
// remaining streams (wire-level fan-out dedup) — while every replica still
// converges.
func TestOracleSharedFilterWireDedup(t *testing.T) {
	skipShort(t)
	rep := runTier(t)
	if rep.StreamDedupPDUs == 0 {
		t.Errorf("no shared-PDU encoding reuse on same-filter persist streams (encodes=%d)",
			rep.StreamEncodes)
	}
	t.Logf("wire dedup: %d events, %d exchanges, stream encodes=%d dedup=%d",
		rep.Events, rep.Polls, rep.StreamEncodes, rep.StreamDedupPDUs)
}

// runShards runs the calling test's shard sweep at shard counts 1, 2 and 8
// and returns one line per preset and shard count.
func runShards(t *testing.T) []string {
	rep := RunShardSweep(flagConfig(t), []int{1, 2, 8})
	if rep.Failure != nil {
		fail(t, rep.Failure)
	}
	var lines []string
	for _, pt := range rep.Points {
		lines = append(lines, fmt.Sprintf("%s shards=%d traffic=%016x content=%016x",
			pt.Runner, pt.Shards, pt.TrafficHash, pt.ContentHash))
		t.Log(lines[len(lines)-1])
	}
	return lines
}

// TestOracleShardSweep is the tier-1 shard-equivalence gate: identical
// flat, cascade, and edge-write histories replayed at shard counts 1, 2,
// and 8 must produce byte-identical wire traffic and final content (FNV
// fingerprints over every update PDU and every converged replica). Any
// routing, ordering, or batching behavior that leaks the shard count into
// observable protocol behavior fails here.
func TestOracleShardSweep(t *testing.T) {
	pin(t, runShards(t)...)
}

// TestOracleShardSweepFull is the long shard-equivalence sweep, enabled by
// -oracle.n (see `make oracle`). History count is split across the three
// presets and shard counts so the sweep's total work tracks -oracle.n.
func TestOracleShardSweepFull(t *testing.T) {
	runShards(t)
}

// TestOracleResumeQuick is the tier-1 crash/resume gate for resumable
// chunked reloads: per history the same transfer is replayed with the
// connection cut at every chunk boundary (with journal-trimming churn
// committed at the instant of the cut) and at the byte midpoint of every
// chunk, plus forged- and stale-token presentations. Asserts byte-identical
// convergence, monotone progress (at most one full reload of chunks plus
// one re-sent chunk per cut), and clean restarts on unverifiable tokens.
func TestOracleResumeQuick(t *testing.T) {
	skipShort(t)
	rep := runTier(t)
	t.Logf("oracle resume quick: %d histories, %d cuts, %d exchanges",
		rep.Histories, rep.Events, rep.Polls)
}

// TestOracleResumeSweep is the long crash/resume sweep: one history per 25
// engine histories requested, with larger reload shapes (entry count and
// chunk size derived from each history seed).
func TestOracleResumeSweep(t *testing.T) {
	rep := runTier(t)
	t.Logf("oracle resume sweep: %d histories, %d cuts, %d exchanges",
		rep.Histories, rep.Events, rep.Polls)
}

// TestOracleAdaptiveQuick is the tier-1 adaptive-tiering gate: a wire-level
// master → adaptive tier → leaves run where the tier starts too narrow, a
// mid-run locality shift diverts a leaf to the fallback master, and the
// tierctl control plane must widen the tier, fire the filters-changed watch,
// migrate the leaf back, release its fallback session, and end up
// byte-identical to a statically-widened reference tier — all within budget.
func TestOracleAdaptiveQuick(t *testing.T) {
	skipShort(t)
	rep := runTier(t)
	t.Logf("oracle adaptive quick: %d histories, %d events, %d exchanges",
		rep.Histories, rep.Events, rep.Polls)
}

// TestOracleAdaptiveSweep is the long adaptive-tiering sweep: one history
// per 25 engine histories requested (at least one).
func TestOracleAdaptiveSweep(t *testing.T) {
	rep := runTier(t)
	t.Logf("oracle adaptive sweep: %d histories, %d events, %d exchanges",
		rep.Histories, rep.Events, rep.Polls)
}

// TestOracleDetectsDroppedDeletes is the oracle's own acceptance test:
// with the consumer-side E10 fault injected (delete PDUs dropped), the
// oracle must flag a divergence and shrink the history to a reproducing
// subsequence.
func TestOracleDetectsDroppedDeletes(t *testing.T) {
	f := Run(Flat, flagConfig(t)).Failure
	if f == nil {
		t.Fatal("oracle missed the injected E10 fault: no divergence reported")
	}
	if len(f.Minimal) == 0 {
		t.Fatal("failure reported without a shrunk history")
	}
	if len(f.Minimal) > len(f.History) {
		t.Fatalf("shrunk history longer than original: %d > %d", len(f.Minimal), len(f.History))
	}
	// The minimal history must still reproduce under the same fault.
	if Flat.run(Config{BreakE10: true}, f.HistorySeed, f.Minimal, nil) == nil {
		t.Fatal("shrunk history does not reproduce the divergence")
	}
	// ...and a correct consumer must pass it.
	if clean := Flat.run(Config{}, f.HistorySeed, f.Minimal, nil); clean != nil {
		t.Fatalf("shrunk history fails even without the injected fault:\n%s", clean.Msg)
	}
	f.Replay = replayLine(t.Name(), f.HistorySeed)
	t.Logf("injected E10 fault detected and shrunk %d -> %d events:\n%s",
		len(f.History), len(f.Minimal), f.Format())
}

// TestReplayLinesReplay parses the replay line each oracle test prints for
// a failing history and checks that the test it names, under the flags it
// sets, reruns exactly that history alone: the same preset and
// configuration, and the same events (for Resume, the cuts of the same
// reload shape).
func TestReplayLinesReplay(t *testing.T) {
	line := regexp.MustCompile(`-run '\^(\w+)\$' -oracle\.seed=(-?\d+) -oracle\.n=(\d+) -oracle\.steps=(\d+)$`)
	for name, tr := range tiers {
		t.Run(name, func(t *testing.T) {
			cfg := config(name, 42, 120, 80)
			if tr.quick > 0 {
				cfg = config(name, 42, 0, 80)
			}
			hseed := historySeed(cfg.Seed, cfg.Histories-1)
			m := line.FindStringSubmatch(replayLine(name, hseed))
			if m == nil {
				t.Fatalf("unparsable replay line %q", replayLine(name, hseed))
			}
			seed, _ := strconv.ParseInt(m[2], 10, 64)
			n, _ := strconv.Atoi(m[3])
			steps, _ := strconv.Atoi(m[4])
			got := config(m[1], seed, n, steps)
			if got.Histories != 1 || historySeed(got.Seed, 0) != hseed {
				t.Fatalf("replay runs %d histories from seed %d, want history %d alone", got.Histories, got.Seed, hseed)
			}
			if tiers[m[1]].preset.Name != tr.preset.Name {
				t.Fatalf("replay runs preset %q, want %q", tiers[m[1]].preset.Name, tr.preset.Name)
			}
			got.Seed, got.Histories = cfg.Seed, cfg.Histories
			if fmt.Sprint(got) != fmt.Sprint(cfg) {
				t.Fatalf("replay configuration %+v, want %+v", got, cfg)
			}
			if tr.preset.gen != nil && !reflect.DeepEqual(tr.preset.gen(got, hseed), tr.preset.gen(cfg, hseed)) {
				t.Fatal("replay regenerates a different history")
			}
		})
	}
}

// TestCorruptCookie pins the corruption helper used by EvBadCookie.
func TestCorruptCookie(t *testing.T) {
	if got := corruptCookie("sess-3@17"); got != "sess-3@999999999" {
		t.Fatalf("corruptCookie: got %q", got)
	}
	if got := corruptCookie("nogen"); got != "nogen@999999999" {
		t.Fatalf("corruptCookie: got %q", got)
	}
}

// Format renders the failure for a test log: the divergence, the minimal
// reproducing history, and the replay command.
func (f *Failure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "oracle divergence (history seed %d, step %d):\n%s\n", f.HistorySeed, f.Step, f.Msg)
	if len(f.Minimal) > 0 {
		fmt.Fprintf(&b, "\nminimal reproducing history (%d of %d events):\n", len(f.Minimal), len(f.History))
		for i, ev := range f.Minimal {
			fmt.Fprintf(&b, "  %2d. %s\n", i+1, ev)
		}
	}
	if f.Replay != "" {
		fmt.Fprintf(&b, "\nreplay: %s\n", f.Replay)
	}
	return b.String()
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

// Run executes cfg.Histories independent histories of preset p. On the
// first divergence the history is shrunk and the run stops.
func Run(p Preset, cfg Config) *Report {
	rep := &Report{}
	for i := 0; i < cfg.Histories; i++ {
		hseed := historySeed(cfg.Seed, i)
		events := p.gen(cfg, hseed)
		f := p.run(cfg, hseed, events, rep)
		if f == nil {
			rep.Histories++
			continue
		}
		budget := p.reruns
		f.History = events
		f.Minimal = shrinkEvents(events, func(ev []Event) bool {
			if p.reruns > 0 {
				if budget <= 0 {
					return false
				}
				budget--
			}
			return p.run(cfg, hseed, ev, nil) != nil
		})
		rep.Failure = f
		break
	}
	return rep
}
