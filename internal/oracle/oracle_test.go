package oracle

import (
	"flag"
	"testing"

	"filterdir/internal/supervisor"
)

// Sweep controls; see `make oracle`. A failing history prints its own
// one-line replay command using these flags.
var (
	oracleSeed  = flag.Int64("oracle.seed", 42, "base seed for oracle sweep histories")
	oracleN     = flag.Int("oracle.n", 0, "number of sweep histories (0 skips the sweep tests)")
	oracleSteps = flag.Int("oracle.steps", 80, "events per sweep history")
)

// TestOracleQuick is the tier-1 engine-level oracle run: a small
// deterministic batch of histories checked after every sync point.
func TestOracleQuick(t *testing.T) {
	rep := Run(Config{Seed: 42, Histories: 12, Steps: 40})
	if rep.Failure != nil {
		t.Fatal(rep.Failure.Format())
	}
	t.Logf("oracle quick: %d histories, %d events, %d exchanges, traffic %+v",
		rep.Histories, rep.Events, rep.Polls, rep.Traffic)
}

// TestOracleQuickWire drives the full wire loop (ldapnet master,
// supervisor replicas, chaos injection) for two short histories — one
// poll-mode, one persist-mode.
func TestOracleQuickWire(t *testing.T) {
	if testing.Short() {
		t.Skip("wire oracle skipped in -short mode")
	}
	rep := RunWire(WireConfig{Seed: 42, Histories: 2, Steps: 12, Chaos: true})
	if rep.Failure != nil {
		t.Fatal(rep.Failure.Format())
	}
	t.Logf("oracle quick wire: %d histories, %d events, %d exchanges, traffic %+v",
		rep.Histories, rep.Events, rep.Polls, rep.Traffic)
}

// TestOracleSweep is the long engine-level sweep, enabled by -oracle.n.
func TestOracleSweep(t *testing.T) {
	if *oracleN <= 0 {
		t.Skip("sweep disabled; run via make oracle or -oracle.n=N")
	}
	rep := Run(Config{Seed: *oracleSeed, Histories: *oracleN, Steps: *oracleSteps})
	if rep.Failure != nil {
		t.Fatal(rep.Failure.Format())
	}
	t.Logf("oracle sweep: %d histories, %d events, %d exchanges, traffic %+v",
		rep.Histories, rep.Events, rep.Polls, rep.Traffic)
}

// TestOracleWireSweep is the long wire-level sweep: one wire history per
// 50 engine histories requested (at least one).
func TestOracleWireSweep(t *testing.T) {
	if *oracleN <= 0 {
		t.Skip("sweep disabled; run via make oracle or -oracle.n=N")
	}
	n := (*oracleN + 49) / 50
	rep := RunWire(WireConfig{Seed: *oracleSeed, Histories: n, Steps: *oracleSteps / 3, Chaos: true})
	if rep.Failure != nil {
		t.Fatal(rep.Failure.Format())
	}
	t.Logf("oracle wire sweep: %d histories, %d events, %d exchanges, traffic %+v",
		rep.Histories, rep.Events, rep.Polls, rep.Traffic)
}

// TestOracleCascadeQuick is the tier-1 three-tier oracle run: a mid-tier
// replica fed from the master engine serves leaves from its own engine;
// every leaf exchange is checked for exact minimality and convergence
// against the mid's store, and every history ends with a transitive
// convergence check against the master's reference model.
func TestOracleCascadeQuick(t *testing.T) {
	rep := RunCascade(CascadeConfig{Seed: 42, Histories: 10, Steps: 40})
	if rep.Failure != nil {
		t.Fatal(rep.Failure.Format())
	}
	t.Logf("oracle cascade quick: %d histories, %d events, %d exchanges",
		rep.Histories, rep.Events, rep.Polls)
}

// TestOracleCascadeQuickWire stands up the real three-tier topology —
// ldapnet master, cascade.Tier, supervisor leaves including a rejected
// outsider — with chaos on both links.
func TestOracleCascadeQuickWire(t *testing.T) {
	if testing.Short() {
		t.Skip("wire oracle skipped in -short mode")
	}
	rep := RunCascadeWire(CascadeWireConfig{Seed: 42, Histories: 1, Steps: 18})
	if rep.Failure != nil {
		t.Fatal(rep.Failure.Format())
	}
	t.Logf("oracle cascade wire: %d histories, %d events, %d exchanges",
		rep.Histories, rep.Events, rep.Polls)
}

// TestOracleCascadeSweep is the long three-tier engine sweep.
func TestOracleCascadeSweep(t *testing.T) {
	if *oracleN <= 0 {
		t.Skip("sweep disabled; run via make oracle or -oracle.n=N")
	}
	rep := RunCascade(CascadeConfig{Seed: *oracleSeed, Histories: *oracleN, Steps: *oracleSteps})
	if rep.Failure != nil {
		t.Fatal(rep.Failure.Format())
	}
	t.Logf("oracle cascade sweep: %d histories, %d events, %d exchanges",
		rep.Histories, rep.Events, rep.Polls)
}

// TestOracleCascadeWireSweep is the long three-tier wire sweep: one wire
// history per 50 engine histories requested (at least one).
func TestOracleCascadeWireSweep(t *testing.T) {
	if *oracleN <= 0 {
		t.Skip("sweep disabled; run via make oracle or -oracle.n=N")
	}
	n := (*oracleN + 49) / 50
	rep := RunCascadeWire(CascadeWireConfig{Seed: *oracleSeed, Histories: n, Steps: *oracleSteps / 4})
	if rep.Failure != nil {
		t.Fatal(rep.Failure.Format())
	}
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
	rep := RunEdge(EdgeConfig{Seed: 42, Histories: 10, Steps: 50})
	if rep.Failure != nil {
		t.Fatal(rep.Failure.Format())
	}
	if rep.EdgeAccepted == 0 || rep.EdgeApplied == 0 {
		t.Fatalf("edge machinery never engaged: accepted=%d applied=%d", rep.EdgeAccepted, rep.EdgeApplied)
	}
	if rep.EdgeDuplicates == 0 {
		t.Error("no replayed forward ever hit the dedup table; lost-response chaos did not engage")
	}
	t.Logf("oracle edge quick: %d histories, %d events, %d exchanges, edge accepted=%d applied=%d dedup=%d",
		rep.Histories, rep.Events, rep.Polls, rep.EdgeAccepted, rep.EdgeApplied, rep.EdgeDuplicates)
}

// TestOracleEdgeWriteSweep is the long edge-write sweep, enabled by
// -oracle.n (see `make oracle ORACLE_TESTS=TestOracleEdgeWriteSweep`).
func TestOracleEdgeWriteSweep(t *testing.T) {
	if *oracleN <= 0 {
		t.Skip("sweep disabled; run via make oracle or -oracle.n=N")
	}
	rep := RunEdge(EdgeConfig{Seed: *oracleSeed, Histories: *oracleN, Steps: *oracleSteps})
	if rep.Failure != nil {
		t.Fatal(rep.Failure.Format())
	}
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
	rep := Run(Config{Seed: 42, Histories: 10, Steps: 50, Specs: sharedSpecs(5), BeginTogether: true})
	if rep.Failure != nil {
		t.Fatal(rep.Failure.Format())
	}
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
}

// TestOracleSharedFilterWireDedup drives the wire loop with persist-mode
// supervisors over the shared-filter spec set and asserts the master
// BER-encoded shared update PDUs once per view, re-sending the bytes to the
// remaining streams (wire-level fan-out dedup) — while every replica still
// converges.
func TestOracleSharedFilterWireDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wire oracle skipped in -short mode")
	}
	cfg := WireConfig{Seed: 42, Histories: 1, Steps: 24, Specs: sharedSpecs(4)}
	cfg.fillDefaults()
	hseed := historySeed(cfg.Seed, 0)
	events := genWireHistory(cfg, hseed)
	rep := &Report{}
	if f := runWire(cfg, hseed, supervisor.ModePersist, events, rep); f != nil {
		t.Fatal(f.Format())
	}
	if rep.StreamDedupPDUs == 0 {
		t.Errorf("no shared-PDU encoding reuse on same-filter persist streams (encodes=%d)",
			rep.StreamEncodes)
	}
	t.Logf("wire dedup: %d events, %d exchanges, stream encodes=%d dedup=%d",
		rep.Events, rep.Polls, rep.StreamEncodes, rep.StreamDedupPDUs)
}

// TestOracleShardSweep is the tier-1 shard-equivalence gate: identical
// flat, cascade, and edge-write histories replayed at shard counts 1, 2,
// and 8 must produce byte-identical wire traffic and final content (FNV
// fingerprints over every update PDU and every converged replica). Any
// routing, ordering, or batching behavior that leaks the shard count into
// observable protocol behavior fails here.
func TestOracleShardSweep(t *testing.T) {
	rep := RunShardSweep(ShardSweepConfig{Seed: 42, Histories: 6, Steps: 40, Shards: []int{1, 2, 8}})
	if rep.Failure != nil {
		t.Fatal(rep.Failure.Format())
	}
	for _, pt := range rep.Points {
		t.Logf("%-9s shards=%d traffic=%016x content=%016x",
			pt.Runner, pt.Shards, pt.TrafficHash, pt.ContentHash)
	}
}

// TestOracleShardSweepFull is the long shard-equivalence sweep, enabled by
// -oracle.n (see `make oracle`). History count is split across the three
// runners and shard counts so the sweep's total work tracks -oracle.n.
func TestOracleShardSweepFull(t *testing.T) {
	if *oracleN <= 0 {
		t.Skip("sweep disabled; run via make oracle or -oracle.n=N")
	}
	n := (*oracleN + 8) / 9
	rep := RunShardSweep(ShardSweepConfig{Seed: *oracleSeed, Histories: n, Steps: *oracleSteps, Shards: []int{1, 2, 8}})
	if rep.Failure != nil {
		t.Fatal(rep.Failure.Format())
	}
	for _, pt := range rep.Points {
		t.Logf("%-9s shards=%d traffic=%016x content=%016x",
			pt.Runner, pt.Shards, pt.TrafficHash, pt.ContentHash)
	}
}

// TestOracleResumeQuick is the tier-1 crash/resume gate for resumable
// chunked reloads: per history the same transfer is replayed with the
// connection cut at every chunk boundary (with journal-trimming churn
// committed at the instant of the cut) and at the byte midpoint of every
// chunk, plus forged- and stale-token presentations. Asserts byte-identical
// convergence, monotone progress (at most one full reload of chunks plus
// one re-sent chunk per cut), and clean restarts on unverifiable tokens.
func TestOracleResumeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("wire oracle skipped in -short mode")
	}
	rep := RunResume(ResumeConfig{Seed: 42, Histories: 2})
	if rep.Failure != nil {
		t.Fatal(rep.Failure.Format())
	}
	t.Logf("oracle resume quick: %d histories, %d attempts, %d exchanges",
		rep.Histories, rep.Events, rep.Polls)
}

// TestOracleResumeSweep is the long crash/resume sweep: one history per 25
// engine histories requested, with larger reload shapes (entry count and
// chunk size derived from each history seed).
func TestOracleResumeSweep(t *testing.T) {
	if *oracleN <= 0 {
		t.Skip("sweep disabled; run via make oracle or -oracle.n=N")
	}
	n := (*oracleN + 24) / 25
	rep := RunResume(ResumeConfig{Seed: *oracleSeed, Histories: n, Entries: 60})
	if rep.Failure != nil {
		t.Fatal(rep.Failure.Format())
	}
	t.Logf("oracle resume sweep: %d histories, %d attempts, %d exchanges",
		rep.Histories, rep.Events, rep.Polls)
}

// TestOracleAdaptiveQuick is the tier-1 adaptive-tiering gate: a wire-level
// master → adaptive tier → leaves run where the tier starts too narrow, a
// mid-run locality shift diverts a leaf to the fallback master, and the
// tierctl control plane must widen the tier, fire the filters-changed watch,
// migrate the leaf back, release its fallback session, and end up
// byte-identical to a statically-widened reference tier — all within budget.
func TestOracleAdaptiveQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("wire oracle skipped in -short mode")
	}
	rep := RunAdaptive(AdaptiveConfig{Seed: 42, Histories: 1, Steps: 20})
	if rep.Failure != nil {
		t.Fatal(rep.Failure.Format())
	}
	t.Logf("oracle adaptive quick: %d histories, %d events, %d exchanges",
		rep.Histories, rep.Events, rep.Polls)
}

// TestOracleAdaptiveSweep is the long adaptive-tiering sweep: one history
// per 25 engine histories requested (at least one).
func TestOracleAdaptiveSweep(t *testing.T) {
	if *oracleN <= 0 {
		t.Skip("sweep disabled; run via make oracle or -oracle.n=N")
	}
	n := (*oracleN + 24) / 25
	rep := RunAdaptive(AdaptiveConfig{Seed: *oracleSeed, Histories: n, Steps: *oracleSteps / 2})
	if rep.Failure != nil {
		t.Fatal(rep.Failure.Format())
	}
	t.Logf("oracle adaptive sweep: %d histories, %d events, %d exchanges",
		rep.Histories, rep.Events, rep.Polls)
}

// TestOracleDetectsDroppedDeletes is the oracle's own acceptance test:
// with the consumer-side E10 fault injected (delete PDUs dropped), the
// oracle must flag a divergence, shrink the history to a reproducing
// subsequence, and emit a replay command.
func TestOracleDetectsDroppedDeletes(t *testing.T) {
	rep := Run(Config{Seed: 42, Histories: 8, Steps: 60, BreakE10: true})
	f := rep.Failure
	if f == nil {
		t.Fatal("oracle missed the injected E10 fault: no divergence reported")
	}
	if len(f.Minimal) == 0 {
		t.Fatal("failure reported without a shrunk history")
	}
	if len(f.Minimal) > len(f.History) {
		t.Fatalf("shrunk history longer than original: %d > %d", len(f.Minimal), len(f.History))
	}
	if f.Replay == "" {
		t.Fatal("failure reported without a replay command")
	}
	// The minimal history must still reproduce under the same fault.
	if runEngine(Config{BreakE10: true}, f.HistorySeed, f.Minimal, nil) == nil {
		t.Fatal("shrunk history does not reproduce the divergence")
	}
	// ...and a correct consumer must pass it.
	if clean := runEngine(Config{}, f.HistorySeed, f.Minimal, nil); clean != nil {
		t.Fatalf("shrunk history fails even without the injected fault:\n%s", clean.Msg)
	}
	t.Logf("injected E10 fault detected and shrunk %d -> %d events:\n%s",
		len(f.History), len(f.Minimal), f.Format())
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
