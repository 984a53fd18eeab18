// Package tierctl is the demand-driven adaptive control plane for a cascade
// mid-tier: it re-tiers the cascade under shifting traffic by feeding live
// demand signals into the Section 6.2 selector (selection.Selector) and
// applying each revolution's delta to the tier's filter set.
//
// Three demand signals drive it:
//
//   - admission rejections — the diverted leaf specs themselves, reported by
//     the tier's admission gate. A leaf the tier turned away (and which is
//     now loading the fallback master) is direct evidence of demand the
//     stored set does not cover: each rejection is one observation, and the
//     rejected spec and its generalizations are its candidates.
//   - per-session serving credit — each active downstream session's spec
//     credits the stored filter covering it every control tick, so filters
//     that hold leaves attached keep their hits against fresh rejections.
//   - per-content-group update load — the tier engine's broadcast groups
//     report how many update PDUs each group's spec has fanned out; the
//     per-tick delta credits the covering filter, weighting filters whose
//     content is actually changing.
//
// Every revolveEvery ticks the selector runs one revolution over the hits
// of that period. For a filter the delta adds the tier widens: a new
// upstream link pulls the widened content (containment-gated at the
// upstream, resumable chunked reload like any other link), and once it is
// synced the tier bumps its filter generation — the signal that fires
// diverted leaves' filters-changed watch, so they re-probe immediately and
// migrate back off the fallback master. For a filter the delta removes the
// tier narrows: the filter is retired, and downstream sessions stranded by
// the narrowing are gracefully ended — their next operation returns
// e-syncRefreshRequired, which their supervisors treat as a referral to the
// fallback master with a full reload, so no update is ever lost. Between
// revolutions the filter set does not move: every change of it costs a
// content transfer and a round of leaf re-referrals, the paper's reason for
// reorganizing periodically.
//
// The operator-configured base specs are pinned: adaptation only ever adds
// to the configuration, and a control plane gone quiet leaves exactly the
// static tier behind.
package tierctl

import (
	"fmt"
	"sync"
	"time"

	"filterdir/internal/cascade"
	"filterdir/internal/containment"
	"filterdir/internal/metrics"
	"filterdir/internal/query"
	"filterdir/internal/selection"
	"filterdir/internal/supervisor"
)

// Config parameterizes a Controller. Tier and Budget are required.
type Config struct {
	// Tier is the cascade mid-tier under control.
	Tier *cascade.Tier
	// Budget is the maximum number of replicated specs, base specs included
	// (every filter costs one unit).
	Budget int
	// Interval is the control loop cadence (default 100ms). Each tick
	// credits live serving activity, and every revolveEvery-th runs one
	// revolution; rejections are observed inline as they happen.
	Interval time.Duration
	// Logf receives progress lines (nil discards them).
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// revolveEvery is the revolution period in control ticks (one second at the
// default Interval), fixed from the measurement at 1, 5, 10 and 25 ticks in
// EXPERIMENTS.md ("Revolution period of the tier control plane"): acting on
// every tick adopts whichever leaf is rejected first and trades it away when
// stronger demand shows up, from 5 ticks up a period's rejections are ranked
// together, 25 more than doubles the widening latency, and 10 is the
// shortest measured period that outlasts one widening — a filter meets its
// first revolution with its leaves attached and earning it credit.
const revolveEvery = 10

// unitSize budgets by filter count: every filter costs 1.
func unitSize(query.Query) int { return 1 }

// identity makes an observed spec a candidate itself, beside its
// generalizations.
type identity struct{}

func (identity) Generalize(q query.Query) []query.Query { return []query.Query{q} }

// Controller runs the adaptive control loop over one tier.
type Controller struct {
	cfg      Config
	counters *metrics.TierCounters

	// mu serializes the selector (not goroutine-safe) and the rejection
	// bookkeeping between the admission observer and the control loop.
	mu         sync.Mutex
	sel        *selection.Selector
	ticks      int
	rejected   map[string]query.Query // rejected spec keys not yet admitted
	servedPrev map[string]uint64      // content-group served totals at last tick

	stop      chan struct{}
	done      chan struct{}
	startOnce sync.Once
	stopOnce  sync.Once
}

// New builds a controller; Start arms it.
func New(cfg Config) (*Controller, error) {
	if cfg.Tier == nil {
		return nil, fmt.Errorf("tierctl: tier required")
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("tierctl: positive budget required")
	}
	cfg.fillDefaults()
	rules := append([]selection.Rule{identity{}}, selection.DefaultEnterpriseRules()...)
	sel := selection.NewSelector(selection.NewGeneralizer(rules...), unitSize, cfg.Budget, 0)
	// Containment proves serving credit and candidate coverage.
	sel.Contains = containment.NewChecker().QueryContains
	c := &Controller{
		cfg:        cfg,
		counters:   &metrics.TierCounters{},
		sel:        sel,
		rejected:   make(map[string]query.Query),
		servedPrev: make(map[string]uint64),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	return c, nil
}

// Start seeds the selector with the tier's current filter set, pins the
// base specs, hooks the admission gate and launches the control loop
// (idempotent).
func (c *Controller) Start() {
	c.startOnce.Do(func() {
		c.mu.Lock()
		c.sel.Seed(c.cfg.Tier.Specs())
		c.sel.Pin(c.cfg.Tier.BaseSpecs())
		c.mu.Unlock()
		c.cfg.Tier.SetAdmissionObserver(c.onAdmit)
		c.updateGauges()
		go c.run()
	})
}

// Stop detaches from the tier and halts the control loop. The tier keeps
// whatever filter set adaptation left it with.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() {
		c.cfg.Tier.SetAdmissionObserver(nil)
		close(c.stop)
	})
	<-c.done
}

// Counters exposes the control plane's metrics.
func (c *Controller) Counters() *metrics.TierCounters { return c.counters }

// onAdmit is the tier's admission observer: rejections feed the selector
// inline (cheap map work under the controller lock), and an admission of a
// spec we previously saw rejected means a diverted leaf has migrated back.
func (c *Controller) onAdmit(q query.Query, admitted bool) {
	key := q.Key()
	c.mu.Lock()
	defer c.mu.Unlock()
	if admitted {
		if _, was := c.rejected[key]; was {
			delete(c.rejected, key)
			c.counters.LeavesMigratedBack.Add(1)
		}
		return
	}
	c.rejected[key] = q
	c.sel.Observe(q)
	c.counters.RejectionsObserved.Add(1)
}

func (c *Controller) run() {
	defer close(c.done)
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.tick()
		}
	}
}

// tick credits live serving activity into the selector and, every
// revolveEvery-th time, runs a revolution and applies its delta to the tier.
func (c *Controller) tick() {
	eng := c.cfg.Tier.Engine()
	c.mu.Lock()
	// Attached-session credit: every active downstream spec backs the
	// stored filter covering it, one hit per tick.
	for _, ss := range eng.SessionSpecs() {
		if c.sel.Credit(ss.Spec, 1) {
			c.counters.ServingCredits.Add(1)
		}
	}
	// Content-group load credit: the per-tick delta in update PDUs each
	// broadcast group fanned out, weighted onto the covering filter.
	seen := make(map[string]uint64)
	for _, gl := range eng.GroupLoads() {
		key := gl.Spec.Key()
		seen[key] = gl.Updates
		if prev := c.servedPrev[key]; gl.Updates > prev && c.sel.Credit(gl.Spec, gl.Updates-prev) {
			c.counters.ServingCredits.Add(int64(gl.Updates - prev))
		}
	}
	c.servedPrev = seen
	var delta *selection.Delta
	if c.ticks++; c.ticks%revolveEvery == 0 {
		delta = c.sel.ForceRevolution()
	}
	c.mu.Unlock()
	if delta != nil {
		c.apply(delta)
	}
	c.updateGauges()
}

// apply widens and narrows the live tier per the selector's delta.
func (c *Controller) apply(d *selection.Delta) {
	t := c.cfg.Tier
	for _, q := range d.Add {
		sup, err := t.AdoptSpec(q)
		if err != nil {
			// The tier holds no such content: the selector must not go on
			// crediting the filter and charging the budget for it.
			c.cfg.Logf("tierctl: adopt %s: %v", q.FilterString(), err)
			c.mu.Lock()
			c.sel.Unseed(q)
			c.mu.Unlock()
			continue
		}
		if sup == nil {
			continue // already linked
		}
		c.counters.Generalizations.Add(1)
		c.cfg.Logf("tierctl: widening to %s", q.FilterString())
		go c.noteWidened(q, sup)
	}
	if len(d.Remove) > 0 {
		c.counters.Revolutions.Add(1)
	}
	for _, q := range d.Remove {
		kicked, err := t.RetireSpec(q)
		if err != nil {
			c.cfg.Logf("tierctl: retire %s: %v", q.FilterString(), err)
			continue
		}
		c.counters.FiltersRetired.Add(1)
		c.counters.LeavesReferred.Add(int64(kicked))
	}
}

// noteWidened accounts the widening re-sync volume once the adopted spec's
// upstream link has completed its initial synchronization.
func (c *Controller) noteWidened(q query.Query, sup *supervisor.Supervisor) {
	select {
	case <-sup.Synced():
	case <-c.stop:
		return
	}
	sel := q.Normalize()
	sel.Attrs = nil
	entries := c.cfg.Tier.Replica().Store().MatchAll(sel)
	var bytes int64
	for _, e := range entries {
		bytes += int64(e.ByteSize())
	}
	c.counters.WidenResyncEntries.Add(int64(len(entries)))
	c.counters.WidenResyncBytes.Add(bytes)
	c.updateGauges()
}

// updateGauges mirrors the tier's generation and filter count.
func (c *Controller) updateGauges() {
	gen, _ := c.cfg.Tier.FilterGeneration()
	c.counters.FilterGeneration.Store(int64(gen))
	c.counters.StoredFilters.Store(int64(len(c.cfg.Tier.Specs())))
}
