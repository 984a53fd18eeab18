package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"filterdir/internal/ldapnet"
	"filterdir/internal/metrics"
)

// runConfig is one invocation: one workload, one seed, traced or not.
type runConfig struct {
	def     workloadDef
	seed    int64
	seconds float64
	traced  bool
	outDir  string
	// ladderBudget is the minimum time each ladder rung iterates for.
	ladderBudget time.Duration
}

// live is a point-in-time reading of every counter the program exposes
// plus the process figures; per-layer metrics are deltas between two.
type live struct {
	at         time.Time
	cpuMs      float64
	mem        runtime.MemStats
	masterSync metrics.SyncSnapshot
	masterDit  metrics.StoreSnapshot
	midSync    metrics.SyncSnapshot    // reload counters, summed over mids
	leaf       metrics.ReplicaSnapshot // summed over leaf supervisors
	replBytes  int64
	replWrites int64
}

func cpuMillis() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (t *topology) read(withMem bool) live {
	l := live{at: time.Now(), cpuMs: cpuMillis()}
	if withMem {
		runtime.ReadMemStats(&l.mem)
	}
	l.masterSync = t.backend.SyncCounters().Snapshot()
	l.masterDit = t.dir.Master.Counters().Snapshot()
	l.replBytes, l.replWrites = t.replWire.snapshot()
	for _, m := range t.mids {
		s := m.tier.SyncCounters().Snapshot()
		l.midSync.ReloadChunks += s.ReloadChunks
		l.midSync.Resumes += s.Resumes
		l.midSync.FullReloads += s.FullReloads
	}
	for _, lf := range t.leaves {
		s := lf.sup.Counters().Snapshot()
		l.leaf.UpdatesApplied += s.UpdatesApplied
		l.leaf.StreamBatches += s.StreamBatches
		l.leaf.Polls += s.Polls
		l.leaf.Fallbacks += s.Fallbacks
		l.leaf.Demotions += s.Demotions
		l.leaf.FullReloads += s.FullReloads
		l.leaf.Checkpoints += s.Checkpoints
	}
	return l
}

// phaseResult is everything one timed phase of one round measured.
type phaseResult struct {
	def        phaseDef
	traced     bool // span recording and PDU capture were on
	span       time.Duration
	before     live
	after      live // read once the phase's commits have drained
	write      writeStats
	search     searchStats
	ops        []*commit
	reachMs    []float64
	hop2Ms     []float64
	late       int
	unobserved int
	drainMs    float64
	drained    bool
}

// runResult is one run's raw material for both metric sets.
type runResult struct {
	cfg            runConfig
	setups         []setupStats
	phases         []phaseResult
	attempted      int
	failed         int
	violations     []string
	goroutines0    int
	goroutinesEnd  int
	goroutinesPeak int
	queueMax       int64
	groups         int
	conns          int64
	window         [2]live // first phase start, last phase end (with MemStats)
	ladder         map[string]float64
	admitUs        float64
	spanSelf       map[string]float64
	traceFile      string
	top            []string
}

func (r *runResult) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// where returns the phases that match pred, in run order.
func (r *runResult) where(pred func(*phaseResult) bool) []*phaseResult {
	var out []*phaseResult
	for i := range r.phases {
		if pred(&r.phases[i]) {
			out = append(out, &r.phases[i])
		}
	}
	return out
}

// runWorkload executes one full run: repeated set-up, warm-up, the timed
// phases, the convergence gate and — traced — the ladder replay.
func runWorkload(cfg runConfig) (*runResult, error) {
	res := &runResult{cfg: cfg, goroutines0: runtime.NumGoroutine()}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}

	// Set-up, repeated: only the last topology carries load.
	var topo *topology
	for i := 0; i < cfg.def.setups; i++ {
		if topo != nil {
			topo.close()
		}
		topo, err = buildTopology(cfg.def, cfg.seed, tmp, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		if err := topo.verifyReloads(); err != nil {
			topo.close()
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		res.setups = append(res.setups, topo.setup)
	}
	defer func() {
		if topo != nil {
			topo.close()
		}
	}()
	res.groups = topo.backend.Engine.Groups()
	for _, m := range topo.mids {
		res.groups += m.tier.Engine().Groups()
	}

	// Inputs: everything the program will see is generated here, from the
	// seed, before any of it is sent.
	topo.computeMembership()
	gen := newOpGen(topo, cfg.seed*7919+17)
	warm := gen.generate(int(cfg.def.warmup*cfg.def.writeRate)+1, false)
	for _, ph := range cfg.def.phases {
		span := time.Duration(cfg.seconds * ph.share * float64(time.Second))
		// A traced run records spans and captures PDUs only in the second
		// half of a phase. The first half, same load back to back, yields
		// the timings it reports (none of them carries tracing overhead) and
		// is the baseline of rig.trace_overhead_pct. The closed-loop write
		// phase yields a throughput and nothing the trace explains, so it
		// is never split.
		if cfg.traced && ph.kind != phaseClosedWrite {
			span /= 2
			res.phases = append(res.phases, phaseResult{def: ph, span: span}, phaseResult{def: ph, traced: true, span: span})
			continue
		}
		res.phases = append(res.phases, phaseResult{def: ph, span: span})
	}

	writers := make([]*ldapnet.Client, closedWriters)
	for i := range writers {
		writers[i], err = ldapnet.DialTimeout(topo.clientSrv.Addr(), clientTimeout)
		if err != nil {
			return nil, err
		}
		defer writers[i].Close()
	}
	searchers := make([]*searcher, searchConns)
	for i := range searchers {
		searchers[i], err = newSearcher(topo, cfg.seed*104729+int64(i), i)
		if err != nil {
			return nil, err
		}
		defer searchers[i].close()
	}
	if cfg.traced {
		topo.watchMids()
	}
	trackers := topo.trackers()

	// Warm-up: connections, caches and lazily built state settle before
	// anything is timed.
	runOpenLoop(writers[0], warm, cfg.def.writeRate, topo.expect, nil)
	runSearchers(searchers, time.Duration(cfg.def.warmup*0.4*float64(time.Second)))
	if _, ok := drain(trackers, 5*time.Second, topo.nudger(writers[0])); !ok {
		return nil, fmt.Errorf("warm-up commits did not reach every leaf")
	}
	for _, t := range trackers {
		t.take()
	}

	// START: barrier release.
	runtime.GC()
	windowCSN := topo.dir.Master.LastCSN()
	res.window[0] = topo.read(true)
	peak := runtime.NumGoroutine()

	for i := range res.phases {
		pr := &res.phases[i]
		// The phase's commits are generated now, from the seed and from
		// what was really sent so far, and before the phase's clock starts.
		switch pr.def.kind {
		case phaseOpen:
			pr.ops = gen.generate(int(pr.span.Seconds()*cfg.def.writeRate), true)
		case phaseClosedWrite:
			pr.ops = gen.generate(int(pr.span.Seconds()*closedCap), false)
		}
		if pr.traced {
			tr.on.Store(true)
			topo.setCapture(true)
			runPhase(topo, pr, writers, searchers, trackers, tr)
			tr.on.Store(false)
			topo.setCapture(false)
		} else {
			runPhase(topo, pr, writers, searchers, trackers, nil)
		}
		if sent := pr.write.attempted; sent < len(pr.ops) {
			gen.undo(pr.ops[sent:])
			pr.ops = pr.ops[:sent]
		}
		if pr.def.kind == phaseClosedWrite {
			topo.awaitStreaming(5 * time.Second)
		}
		if n := runtime.NumGoroutine(); n > peak {
			peak = n
		}
	}
	res.window[1] = topo.read(true)
	res.goroutinesPeak = peak
	res.queueMax = topo.backend.SyncCounters().StreamQueueHighWater.Load()
	res.conns = topo.replWire.conns.Load() + topo.clientWire.conns.Load()

	// Accounting and the correctness gate.
	for i := range res.phases {
		pr := &res.phases[i]
		res.attempted += pr.write.attempted + pr.search.attempted
		res.failed += pr.write.failed + pr.search.failed + pr.late + pr.unobserved
		if pr.write.firstErr != nil {
			res.violate("phase %s: %v", pr.def.name, pr.write.firstErr)
		}
		if pr.search.firstErr != nil {
			res.violate("phase %s: %v", pr.def.name, pr.search.firstErr)
		}
		if pr.unobserved > 0 {
			res.violate("phase %s: %d markers never observed at a matching leaf", pr.def.name, pr.unobserved)
		}
		if pr.def.kind == phaseClosedWrite && !pr.drained {
			res.violate("phase %s: leaves did not converge within %.0f ms of the last ack", pr.def.name, drainLimitMs)
		}
	}
	if err := topo.verifyContent(); err != nil {
		res.violate("convergence: %v", err)
	}
	if err := verifySearches(topo, searchers[0], cfg.seed); err != nil {
		res.violate("search check: %v", err)
	}

	var ladderIn *ladderInputs
	if cfg.traced {
		res.traceFile = filepath.Join(cfg.outDir, cfg.def.name+".trace.jsonl")
		if err := tr.write(res.traceFile); err != nil {
			return nil, err
		}
		res.spanSelf = tr.selfTimes()
		ladderIn = captureLadderInputs(topo, cfg, windowCSN, tmp)
		if len(topo.mids) > 0 {
			// Admission needs a live tier, so this one rung runs before
			// teardown.
			tier, spec := topo.mids[0].tier, topo.leaves[0].spec
			res.admitUs = rung(cfg.ladderBudget/4, func(int) { _ = tier.Admit(spec) }).ns / 1e3
		}
	}

	for _, w := range writers {
		_ = w.Close()
	}
	for _, s := range searchers {
		s.close()
	}
	topo.close()
	topo = nil
	if ladderIn != nil {
		// Nothing of the topology is running any more: the replay has the
		// process to itself.
		res.ladder = runLadder(ladderIn)
	}
	// Handler goroutines of closed connections exit asynchronously.
	for i := 0; i < 200 && runtime.NumGoroutine() > res.goroutines0; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	res.goroutinesEnd = runtime.NumGoroutine()
	return res, nil
}

// setCapture switches PDU capture on the master's listeners and the front
// replica's; the ladder replays what they wrote.
func (t *topology) setCapture(on bool) {
	t.replWire.capture.Store(on)
	t.clientWire.capture.Store(on)
	t.frontWire.capture.Store(on)
}

// runPhase drives one phase's load, then waits for its commits to reach
// every matching leaf and reads the counters.
func runPhase(topo *topology, pr *phaseResult, writers []*ldapnet.Client,
	searchers []*searcher, trackers []*storeTracker, tr *tracer) {

	for _, s := range searchers {
		s.tr = tr
	}
	// Every phase starts from a collected heap, so how many GC cycles fall
	// inside it depends on the phase's own allocation, not on its
	// predecessor's.
	runtime.GC()
	pr.before = topo.read(false)
	switch pr.def.kind {
	case phaseOpen:
		pr.write = runOpenLoop(writers[0], pr.ops, topo.def.writeRate, topo.expect, tr)
	case phaseClosedWrite:
		pr.write = runClosedLoop(writers, pr.ops, pr.span, topo.expect, tr)
	case phaseSearch:
		pr.search = runSearchers(searchers, pr.span)
	}
	if pr.def.kind != phaseSearch {
		took, ok := drain(trackers, time.Duration(drainLimitMs)*time.Millisecond, topo.nudger(writers[0]))
		pr.drainMs, pr.drained = float64(took)/1e6, ok
		for _, t := range trackers {
			if !ok {
				pr.unobserved += t.abandon()
			}
			reach, hop2, late := t.take()
			pr.reachMs = append(pr.reachMs, reach...)
			pr.hop2Ms = append(pr.hop2Ms, hop2...)
			pr.late += late
		}
	}
	pr.after = topo.read(false)
}

// verifySearches replays trace queries against the quiesced, converged
// system and compares each answer's DN set with the master's own.
func verifySearches(topo *topology, s *searcher, seed int64) error {
	gen := topo.traceGenerator(seed + 1)
	s.tr = nil
	deadline := time.Now().Add(500 * time.Millisecond)
	for i := 0; i < 200 && (i < 8 || time.Now().Before(deadline)); i++ {
		q := gen.Next().Query
		got, _, err := s.resolve(q, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", q.String(), err)
		}
		mq := q
		if mq.Base.IsRoot() {
			mq.Base = suffixDN
		}
		want := map[string]bool{}
		for _, e := range topo.dir.Master.MatchAll(mq) {
			want[e.DN().Norm()] = true
		}
		if len(got.Entries) != len(want) {
			return fmt.Errorf("%s: got %d entries, master holds %d", q.String(), len(got.Entries), len(want))
		}
		for _, e := range got.Entries {
			if !want[e.DN().Norm()] {
				return fmt.Errorf("%s: unexpected entry %q", q.String(), e.DN().String())
			}
		}
	}
	return nil
}
