// Package cascade builds replication trees out of filter-based replicas: a
// mid-tier replica consumes one or more content specs from its upstream
// (the master, or another mid-tier) exactly like a leaf replica does, and
// at the same time runs its own resynchronization engine over the local
// content store so downstream replicas can attach to it instead of the
// master. The master's fan-out then scales with the number of mid-tiers,
// not the number of leaves.
//
// Admission is containment-gated: a downstream spec is served only when
// the paper's QC algorithm proves it contained in one of the tier's
// configured specs — the tier provably holds every entry the downstream
// selects, so serving it locally is byte-equivalent to serving it from the
// master. A spec that cannot be proven contained is rejected with
// ldapnet.ErrNotContained (a referral on the wire); the downstream
// supervisor reacts by diverting to its fallback master.
//
// Update propagation needs no translation layer: the tier's supervisors
// apply upstream batches into the shared replica store, which journals
// each change under a local CSN and fires the store's change signal; the
// tier engine's sessions classify those journal entries per downstream
// spec (the net E01/E10/E11 sets), so a delta arriving from upstream
// re-broadcasts to every affected downstream group as a minimal update
// set. An upstream full reload becomes a mass delete+add in the local
// journal and is absorbed by the same classification — a downstream that
// polls across it still receives only its net difference, which is the
// transitive form of the paper's equation 3 argument. Only when the local
// journal has been trimmed past a downstream's sync point does the tier
// degrade that session to a full reload, which is sound, just bigger.
package cascade

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"filterdir/internal/containment"
	"filterdir/internal/dit"
	"filterdir/internal/edgewrite"
	"filterdir/internal/ldapnet"
	"filterdir/internal/metrics"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
	"filterdir/internal/supervisor"
)

// Config parameterizes a Tier. Upstream and Specs are required.
type Config struct {
	// Upstream is the address this tier synchronizes from (the master, or
	// a higher mid-tier).
	Upstream string
	// Fallback is the root master's address. The tier's own supervisors
	// divert to it when Upstream rejects or forgets them (see
	// supervisor.Config.Fallback); leave empty when Upstream is the master.
	Fallback string
	// RetryUpstreamAfter is forwarded to the supervisors (how long a
	// diverted supervisor stays on the fallback before re-probing).
	RetryUpstreamAfter time.Duration
	// Specs are the tier's replicated content specs — both what it pulls
	// from upstream and the admission universe for downstream sessions.
	Specs []query.Query
	// Depth is this tier's distance from the master (1 = directly below
	// it); reported through the cascade counters.
	Depth int
	// Mode selects the upstream steady state (poll or persist stream).
	Mode supervisor.Mode
	// StateDir makes the tier durable when non-empty: every upstream link
	// journals into a directory of its own under it, beside tier.json
	// (state.go). The tier owns the directory and removes what it does not
	// recognise there.
	StateDir string
	// JournalLimit bounds the local store's journal, and with it how far
	// behind a downstream session may lag before degrading to a full
	// reload (default resync.DefaultJournalLimit).
	JournalLimit int
	// ReloadChunk serves downstream full reloads in resumable chunks of
	// this many entries (0 = monolithic).
	ReloadChunk int
	// ContentIndexes maintains equality/prefix indexes on the tier store.
	ContentIndexes []string
	// PollInterval, IdleTimeout, BackoffBase, BackoffMax and DialTimeout
	// are forwarded to the upstream supervisors.
	PollInterval, IdleTimeout time.Duration
	BackoffBase, BackoffMax   time.Duration
	DialTimeout               time.Duration
	// WatchFilters arms each upstream supervisor's filters-changed
	// long-poll while diverted: a widened upstream triggers an immediate
	// re-probe instead of waiting out RetryUpstreamAfter.
	WatchFilters bool
	// Seed makes supervisor backoff jitter deterministic (supervisor i
	// gets Seed+i; adopted specs continue the sequence).
	Seed int64
	// Dial is the upstream transport hook (nil = TCP).
	Dial ldapnet.DialFunc
	// Logf receives progress lines (nil discards them).
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.JournalLimit <= 0 {
		c.JournalLimit = resync.DefaultJournalLimit
	}
	if c.Depth <= 0 {
		c.Depth = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Tier is one mid-tier node: a filter replica fed by upstream supervisors,
// plus a resync engine over the replica's store serving downstream
// replicas, plus the containment gate between them. It is an ldapnet.Tier,
// so wrapping it in an ldapnet.CascadeBackend and a server makes it
// network-attachable: the backend serves ReSync from Engine() behind Admit.
type Tier struct {
	cfg      Config
	checker  *containment.Checker // shared by the replica's answers and the admission gate
	rep      *replica.FilterReplica
	eng      *resync.Engine
	counters *metrics.CascadeCounters

	// links are the tier's upstream synchronization links — one per
	// replicated spec. The set is dynamic: an adaptive control plane
	// (internal/tierctl) adopts widened specs and retires decayed ones at
	// runtime; base links (from Config.Specs) can never be retired.
	linkMu  sync.Mutex
	links   []*upstreamLink
	nextSeq int64 // supervisor seed sequence, monotonic across adopt/retire
	started bool

	// Filter generation: bumped on every adopt/retire; genCh is closed and
	// replaced on each bump so watchers (the ldapnet filters-watch control)
	// can long-poll for the next change. Under linkMu, like the link set it
	// is made durable with.
	gen   uint64
	genCh chan struct{}

	// admitObserver, when set, sees every downstream admission decision —
	// the control plane's demand signal for widening.
	admitMu       sync.Mutex
	admitObserver func(q query.Query, admitted bool)

	// Apply→rebroadcast latency: the supervisor's OnApplied stamps
	// lastApply and arms applyPending; the engine observer consumes the
	// flag on the first downstream delivery that follows.
	lastApply    atomic.Int64 // UnixNano of the newest upstream apply
	applyPending atomic.Bool

	// Master-coordinate watermark translation for downstream consumers:
	// each link holds its supervisor's latest reported upstream watermark,
	// wm maps local journal positions to the min over them (the
	// conservative bound — any downstream spec rides some link's stream).
	wm watermarkMap

	// edge, when attached, is the tier's own write acceptor; the tier feeds
	// it the minimum of its links' watermarks so its pending ops retire.
	// edgeMu also serializes publishWatermark, so the last watermark
	// published is the one computed from the latest links and values.
	edgeMu sync.Mutex
	edge   *edgewrite.Writer

	stop      chan struct{}
	stopOnce  sync.Once
	stopErr   error
	adopting  sync.WaitGroup // AdoptSpec's goroutines awaiting an initial sync
	startOnce sync.Once
}

var _ ldapnet.Tier = (*Tier)(nil)

// upstreamLink is one upstream synchronization link: the normalized spec,
// the supervisor pulling it, and the supervisor's latest reported upstream
// watermark. base marks specs from Config.Specs, which the adaptive control
// plane may never retire.
type upstreamLink struct {
	spec query.Query
	sup  *supervisor.Supervisor
	wm   atomic.Uint64
	base bool
}

// New builds a tier: reads the filter generation and any previously adopted
// specs back from the state directory if there is one, then constructs the
// engine and one upstream supervisor per spec, each restoring the content and
// position its own journal holds. Start launches them.
func New(cfg Config) (*Tier, error) {
	cfg.fillDefaults()
	if cfg.Upstream == "" {
		return nil, fmt.Errorf("cascade: upstream address required")
	}
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("cascade: at least one content spec required")
	}
	checker := containment.NewChecker()
	rep, err := replica.NewFilterReplica(
		replica.WithChecker(checker),
		replica.WithJournalLimit(cfg.JournalLimit),
		replica.WithContentIndexes(cfg.ContentIndexes...),
	)
	if err != nil {
		return nil, err
	}
	t := &Tier{
		cfg:      cfg,
		checker:  checker,
		rep:      rep,
		counters: &metrics.CascadeCounters{},
		genCh:    make(chan struct{}),
		stop:     make(chan struct{}),
	}
	t.counters.TierDepth.Store(int64(cfg.Depth))

	var adopted []query.Query
	if cfg.StateDir != "" {
		if adopted, err = t.openState(); err != nil {
			return nil, fmt.Errorf("cascade: restore state: %w", err)
		}
	}

	// The engine runs over the same store the supervisors apply into:
	// upstream batches journal local CSNs there, and downstream sessions
	// classify against that journal. Downstream watermark stamps are
	// translated from local to master coordinates so edge writers below
	// this tier can retire against them.
	var engOpts []resync.EngineOption
	if cfg.ReloadChunk > 0 {
		engOpts = append(engOpts, resync.WithChunkSize(cfg.ReloadChunk))
	}
	t.eng = resync.NewEngine(rep.Store(), engOpts...)
	t.eng.SetWatermarkFunc(t.wm.lookup)
	t.eng.SetObserver(func(_ string, updates []resync.Update, fullReload bool) {
		if len(updates) == 0 && !fullReload {
			return
		}
		if t.applyPending.CompareAndSwap(true, false) {
			d := time.Duration(time.Now().UnixNano() - t.lastApply.Load())
			t.counters.ObserveRebroadcast(d)
		}
	})

	for i, spec := range slices.Concat(cfg.Specs, adopted) {
		link, err := t.newLink(spec.Normalize(), i < len(cfg.Specs))
		if err != nil {
			_ = t.Stop() // closes the journals of the links already built
			return nil, err
		}
		t.links = append(t.links, link)
	}
	return t, nil
}

// newLink builds an upstream link (spec must be normalized); the caller
// appends it to t.links and, on a started tier, starts its supervisor.
func (t *Tier) newLink(spec query.Query, base bool) (*upstreamLink, error) {
	link := &upstreamLink{spec: spec, base: base}
	seq := t.nextSeq
	t.nextSeq++
	sup, err := supervisor.New(supervisor.Config{
		Master:             t.cfg.Upstream,
		Fallback:           t.cfg.Fallback,
		RetryUpstreamAfter: t.cfg.RetryUpstreamAfter,
		WatchFilters:       t.cfg.WatchFilters,
		Spec:               spec,
		Mode:               t.cfg.Mode,
		PollInterval:       t.cfg.PollInterval,
		IdleTimeout:        t.cfg.IdleTimeout,
		BackoffBase:        t.cfg.BackoffBase,
		BackoffMax:         t.cfg.BackoffMax,
		DialTimeout:        t.cfg.DialTimeout,
		Seed:               t.cfg.Seed + seq,
		Dial:               t.cfg.Dial,
		Logf:               t.cfg.Logf,
		StateDir:           t.linkDir(spec),
		OnApplied:          t.noteApply,
		OnWatermark:        func(csn uint64) { t.noteWatermark(link, csn) },
	}, t.rep)
	if err != nil {
		return nil, err
	}
	link.sup = sup
	return link, nil
}

// snapshotLinks copies the current link slice (the slice header only; links
// themselves are shared).
func (t *Tier) snapshotLinks() []*upstreamLink {
	t.linkMu.Lock()
	defer t.linkMu.Unlock()
	return append([]*upstreamLink(nil), t.links...)
}

// Specs returns the tier's current normalized admission universe: the base
// specs plus any adopted by the control plane.
func (t *Tier) Specs() []query.Query {
	t.linkMu.Lock()
	defer t.linkMu.Unlock()
	specs := make([]query.Query, len(t.links))
	for i, link := range t.links {
		specs[i] = link.spec
	}
	return specs
}

// BaseSpecs returns the operator-configured specs — the links the adaptive
// control plane pins and can never retire.
func (t *Tier) BaseSpecs() []query.Query {
	t.linkMu.Lock()
	defer t.linkMu.Unlock()
	var out []query.Query
	for _, link := range t.links {
		if link.base {
			out = append(out, link.spec)
		}
	}
	return out
}

// FilterGeneration implements ldapnet.FilterWatcher: the current admission
// filter generation and a channel closed when it next changes.
func (t *Tier) FilterGeneration() (uint64, <-chan struct{}) {
	t.linkMu.Lock()
	defer t.linkMu.Unlock()
	return t.gen, t.genCh
}

// bumpGeneration advances the filter generation and wakes all watchers,
// having first made it durable with the link set as it now stands: no watcher
// hears of a generation that a restart would take back.
func (t *Tier) bumpGeneration() {
	t.linkMu.Lock()
	err := t.writeState(t.gen + 1)
	t.gen++
	close(t.genCh)
	t.genCh = make(chan struct{})
	t.linkMu.Unlock()
	if err != nil {
		t.cfg.Logf("cascade: filter generation not durable: %v", err)
	}
}

// SetAdmissionObserver registers a hook that sees every downstream
// admission decision (the control plane's demand signal). Pass nil to
// clear.
func (t *Tier) SetAdmissionObserver(fn func(q query.Query, admitted bool)) {
	t.admitMu.Lock()
	t.admitObserver = fn
	t.admitMu.Unlock()
}

// noteWatermark records one link's upstream watermark and publishes the
// tier's.
func (t *Tier) noteWatermark(link *upstreamLink, csn uint64) {
	link.wm.Store(csn)
	t.publishWatermark()
}

// publishWatermark folds the live links' upstream watermarks into one, the
// minimum, 0 while any link has not reported. Once it is set it is recorded
// against the store's current local position for the coordinate translation
// (conservative — content at this position reflects at least that much of
// the master for every spec), and an attached edge writer retires against
// it. Only live links count: a retired spec no longer holds retirement back.
// Every caller publishes under edgeMu: one whose minimum is stale (a link
// regressed or was adopted after it read the links) cannot publish last.
func (t *Tier) publishWatermark() {
	t.edgeMu.Lock()
	defer t.edgeMu.Unlock()
	min := uint64(0)
	for _, l := range t.snapshotLinks() {
		v := l.wm.Load()
		if v == 0 {
			min = 0
			break
		}
		if min == 0 || v < min {
			min = v
		}
	}
	if min > 0 {
		t.wm.record(t.rep.Store().LastCSN(), min)
	}
	if t.edge != nil {
		t.edge.SetWatermark(min)
	}
}

// AttachEdgeWriter arms the tier's own write path: the writer retires
// against the tier's watermark, which the supervision loops feed. Build the
// writer with AdmitWrite as its gate and the tier store's Get as its lookup.
func (t *Tier) AttachEdgeWriter(w *edgewrite.Writer) {
	t.edgeMu.Lock()
	t.edge = w
	t.edgeMu.Unlock()
}

// AdmitWrite gates a direct edge write at this tier: adds must fall under a
// configured spec, targeted ops must name held entries (see
// edgewrite.Admitter).
func (t *Tier) AdmitWrite(c dit.Change) error {
	return edgewrite.Admitter(t.Specs(), t.rep.Store().Get)(c)
}

// noteApply records one applied upstream batch and stamps the latency
// clock for the next downstream rebroadcast.
func (t *Tier) noteApply(n int) {
	t.counters.UpstreamBatches.Add(1)
	t.counters.UpstreamUpdates.Add(int64(n))
	if n > 0 {
		t.lastApply.Store(time.Now().UnixNano())
		t.applyPending.Store(true)
	}
}

// Start launches the upstream supervisors (idempotent). Specs adopted after
// Start get their supervisors started by AdoptSpec itself.
func (t *Tier) Start() {
	t.startOnce.Do(func() {
		t.linkMu.Lock()
		defer t.linkMu.Unlock()
		t.started = true
		for _, link := range t.links {
			link.sup.Start()
		}
	})
}

// Stop halts the supervisors. Nothing is written: every exchange a link
// landed is committed already, so a restart resumes from the stop point. Every
// call returns the one shutdown's errors.
func (t *Tier) Stop() error {
	t.stopOnce.Do(func() {
		close(t.stop)
		t.adopting.Wait()
		for _, link := range t.snapshotLinks() {
			t.stopErr = errors.Join(t.stopErr, link.sup.Stop())
		}
	})
	return t.stopErr
}

// Admit checks a downstream spec against the tier's current specs with the
// QC algorithm, returning nil when some spec provably contains it. The gate
// uses the configured link set, not the replica's live stored-query set, so
// a supervisor mid-reset (content momentarily unregistered) cannot reject a
// spec the tier is configured to serve. Every decision is reported to the
// admission observer, if one is registered — rejections are the adaptive
// control plane's primary widening signal.
func (t *Tier) Admit(q query.Query) error {
	t.counters.AdmitChecks.Add(1)
	nq := q.Normalize()
	admitted := t.covered(nq, t.Specs())
	t.admitMu.Lock()
	obs := t.admitObserver
	t.admitMu.Unlock()
	if obs != nil {
		obs(nq, admitted)
	}
	if admitted {
		t.counters.Admitted.Add(1)
		return nil
	}
	t.counters.Rejected.Add(1)
	return fmt.Errorf("%w: %s", ldapnet.ErrNotContained, q.FilterString())
}

// covered reports whether the QC algorithm proves q contained in one of specs.
func (t *Tier) covered(q query.Query, specs []query.Query) bool {
	return slices.ContainsFunc(specs, func(spec query.Query) bool { return t.checker.QueryContains(q, spec) })
}

// SyncCounters exposes the tier engine's synchronization counters.
func (t *Tier) SyncCounters() *metrics.SyncCounters { return t.eng.Counters() }

// Counters exposes the cascade counters for status reporting, with the
// downstream session gauge read off the engine at this moment.
func (t *Tier) Counters() *metrics.CascadeCounters {
	t.counters.DownstreamSessions.Store(int64(t.eng.Sessions()))
	return t.counters
}

// Replica exposes the tier's filter replica (searches, status).
func (t *Tier) Replica() *replica.FilterReplica { return t.rep }

// Engine exposes the downstream-facing engine: ldapnet.CascadeBackend
// serves ReSync from it, gated by Admit.
func (t *Tier) Engine() *resync.Engine { return t.eng }

// Supervisors exposes the current upstream supervisors, one per spec, in
// Specs order (status reporting and convergence probes).
func (t *Tier) Supervisors() []*supervisor.Supervisor {
	links := t.snapshotLinks()
	sups := make([]*supervisor.Supervisor, len(links))
	for i, link := range links {
		sups[i] = link.sup
	}
	return sups
}

// AdoptSpec widens the tier: a new upstream link is created for spec (the
// control plane's generalize/adopt action), its supervisor starts pulling
// the widened content immediately, and — once the initial synchronization
// completes — the filter generation is bumped so diverted leaves watching
// it re-probe while the content is actually present. Adopting a spec
// already linked (same normalized key) is a no-op. Returns the link's
// supervisor (nil for a duplicate).
func (t *Tier) AdoptSpec(spec query.Query) (*supervisor.Supervisor, error) {
	nq := spec.Normalize()
	key := nq.Key()
	t.linkMu.Lock()
	for _, link := range t.links {
		if link.spec.Key() == key {
			t.linkMu.Unlock()
			return nil, nil
		}
	}
	link, err := t.newLink(nq, false)
	if err == nil {
		t.links = append(t.links, link)
		if err = t.writeState(t.gen); err != nil {
			t.links = t.links[:len(t.links)-1]
			_ = link.sup.Stop() // releases the journal; the directory is swept at the next start
		}
	}
	started := t.started
	t.linkMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("cascade: adopt %s: %w", nq.FilterString(), err)
	}

	t.publishWatermark() // the new link has not reported: nothing retires until it has
	if started {
		link.sup.Start()
	}
	// Admission already passes for specs under nq (Specs includes the new
	// link), so an early downstream attach converges via incremental adds.
	// The generation bump — the signal that tells diverted leaves to come
	// back — waits for the initial sync so migrating leaves find the
	// widened content in place.
	t.adopting.Add(1)
	go func() {
		defer t.adopting.Done()
		select {
		case <-link.sup.Synced():
		case <-t.stop:
			return
		}
		t.bumpGeneration()
		t.cfg.Logf("cascade: adopted spec %s (generation %d)", nq.FilterString(), t.generation())
	}()
	return link.sup, nil
}

// RetireSpec narrows the tier: the spec's upstream link is removed from
// admission (generation bump), downstream sessions no longer contained in
// the remaining specs are gracefully ended — their next operation returns
// e-syncRefreshRequired, which their supervisors treat as a divert-to-
// fallback with a full reload, so no update is ever lost — and only then is
// the content dropped, the upstream supervisor stopped and its journal
// removed. Base specs from Config.Specs cannot be retired. Returns the number
// of downstream sessions re-referred.
func (t *Tier) RetireSpec(spec query.Query) (int, error) {
	nq := spec.Normalize()
	key := nq.Key()
	t.linkMu.Lock()
	idx := -1
	for i, link := range t.links {
		if link.spec.Key() == key {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.linkMu.Unlock()
		return 0, fmt.Errorf("cascade: retire %s: no such spec", nq.FilterString())
	}
	link := t.links[idx]
	if link.base {
		t.linkMu.Unlock()
		return 0, fmt.Errorf("cascade: retire %s: configured base spec", nq.FilterString())
	}
	t.links = append(t.links[:idx], t.links[idx+1:]...)
	t.linkMu.Unlock()
	remaining := t.Specs()

	// Order matters: admission narrows first (no new session can attach to
	// the doomed spec), the upstream link stops feeding it, stranded
	// downstream sessions are ended while their content is still present,
	// and the content removal last — its journaled deletes fire the store's
	// change signal, which wakes and reaps any ended persist streams.
	t.bumpGeneration()
	if err := link.sup.Stop(); err != nil {
		t.cfg.Logf("cascade: retire %s: stop supervisor: %v", nq.FilterString(), err)
	}
	t.publishWatermark()
	kicked := t.eng.Kick(func(s query.Query) bool { return t.covered(s, remaining) })
	t.rep.RemoveStored(nq)
	if err := os.RemoveAll(t.linkDir(nq)); err != nil {
		t.cfg.Logf("cascade: retire %s: %v", nq.FilterString(), err)
	}
	t.cfg.Logf("cascade: retired spec %s (%d sessions re-referred, generation %d)",
		nq.FilterString(), len(kicked), t.generation())
	return len(kicked), nil
}

// generation returns the current filter generation (logging helper).
func (t *Tier) generation() uint64 {
	gen, _ := t.FilterGeneration()
	return gen
}
