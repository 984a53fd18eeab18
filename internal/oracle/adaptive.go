package oracle

import (
	"fmt"
	"time"

	"filterdir/internal/ldapnet"
	"filterdir/internal/query"
	"filterdir/internal/sim"
	"filterdir/internal/supervisor"
	"filterdir/internal/tierctl"
)

// The Adaptive preset is a wire-level master → adaptive tier → leaves
// topology where the tier starts too narrow for the offered traffic and the
// tierctl control plane must widen it live. Each history stages a mid-run
// locality shift (EvShift) — a new leaf population arrives whose spec the
// tier's configured filter set does not cover — and then checks the whole
// adaptive loop end to end:
//
//   - the rejected leaf diverts to the fallback master (static behavior);
//   - the control plane observes the rejection, adopts the uncovered spec
//     into spare budget and re-syncs the widened content from upstream;
//   - the filters-changed notification (not the re-probe timer, which is set
//     far beyond the test deadline) brings the diverted leaf back, and its
//     fallback session at the master is released;
//   - the stored set stays within budget, and the final tier content is
//     FNV-byte-identical to a reference tier statically configured with the
//     widened filter set from the start.
//
// No chaos: the cascade presets already cover lossy links, and adaptation
// timing is the subject here.

// genAdaptiveHistory is cfg.Steps master operations before the shift and
// as many after it.
func genAdaptiveHistory(cfg Config, hseed int64) []Event {
	gen := sim.NewOpGen(synthWireConfig(hseed))
	ops := func(events []Event) []Event {
		for i := 0; i < cfg.Steps; i++ {
			events = append(events, Event{Kind: EvOp, Op: gen.Next()})
		}
		return events
	}
	return ops(append(ops(nil), Event{Kind: EvShift}))
}

// runAdaptive runs one Adaptive history. A history shrunk without its
// EvShift shifts after its last operation.
func runAdaptive(cfg Config, hseed int64, events []Event, rep *Report) *Failure {
	h, f := newHist(cfg, hseed, rep, synthWireConfig(hseed))
	if f != nil {
		return f
	}
	backend := ldapnet.NewStoreBackend(h.st)
	w := &wireNet{h: h}
	defer w.close()
	masterAddr, _, f := w.serve(backend, false, 0)
	if f != nil {
		return f
	}
	baseSpec := query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(grp=0)")
	moverSpec := query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(grp=1)")
	// The adaptive tier starts with only the base spec, while the reference
	// tier is statically widened from the start: the adapted tier's final
	// content must be byte-identical to it.
	tier, f := w.tier(masterAddr, nil, hseed, baseSpec)
	if f != nil {
		return f
	}
	refTier, f := w.tier(masterAddr, nil, hseed+9901, baseSpec, moverSpec)
	if f != nil {
		return f
	}
	tierAddr, _, f := w.serve(ldapnet.NewCascadeBackend(tier.Replica(), tier, "ldap://"+masterAddr), false, 0)
	if f != nil {
		return f
	}
	ctrl, err := tierctl.New(tierctl.Config{Tier: tier, Budget: 2, Interval: 4 * time.Millisecond})
	if err != nil {
		return h.fail("new controller: %v", err)
	}
	ctrl.Start()
	w.stops = append(w.stops, ctrl.Stop)

	leaf := func(spec query.Query, mode supervisor.Mode, i int) (*wireLeaf, *Failure) {
		return w.leaf(supervisor.Config{
			Master:   tierAddr,
			Fallback: masterAddr,
			// Far beyond the adaptation deadline below: only the
			// filters-changed watch can bring a diverted leaf back in time.
			RetryUpstreamAfter: 10 * time.Minute,
			WatchFilters:       true,
			Spec:               spec,
			Mode:               mode,
			Seed:               hseed + int64(i),
		})
	}
	tierSettles := func(what string) *Failure { return h.settles(what, tier.Replica().Store(), tier.Specs) }
	reached := func(what string, cond func() string) *Failure { return h.await(what, 10*time.Second, cond) }

	// Phase A: stable traffic within the configured filter set.
	inside, f := leaf(query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(&(grp=0)(val>=2))"), supervisor.ModePersist, 0)
	if f != nil {
		return f
	}
	var mover *wireLeaf
	shift := func() *Failure {
		if f := tierSettles("adaptive tier (phase A)"); f != nil {
			return f
		}
		if f := w.settled(0, inside); f != nil {
			return f
		}
		// Phase B: the locality shift. Content appears in the new region
		// (named outside the op generator's e<N> namespace, so churn never
		// deletes it — the widened reload below always has something to
		// pull), and a new leaf population arrives whose spec the tier
		// cannot serve; it must be rejected and diverted first.
		for i := 0; i < 3; i++ {
			op := sim.Op{Kind: sim.OpAdd, Name: fmt.Sprintf("w%d", i+1), Grp: 1, Val: i}
			if err := sim.ApplyOp(h.st, op); err != nil {
				return h.fail("seed shift entry %q: %v", op, err)
			}
			h.mdl.apply(op)
		}
		if mover, f = leaf(moverSpec, supervisor.ModePoll, 1); f != nil {
			return f
		}
		if f := reached("mover divert to fallback master", func() string {
			if mover.sup.Counters().UpstreamFallbacks.Load() < 1 {
				return "no upstream fallback recorded"
			}
			return ""
		}); f != nil {
			return f
		}
		if got := tier.Counters().Rejected.Load(); got < 1 {
			return h.fail("tier rejected %d sessions, want >= 1 (mover spec %q)", got, moverSpec)
		}
		// The control plane must now adopt the mover's spec, re-sync the
		// widened content, bump the filter generation, and the
		// filters-changed watch must bring the mover back — well before its
		// 10-minute re-probe timer.
		if f := reached("mover migration back to the tier", func() string {
			if got := mover.sup.Target(); got != tierAddr {
				gen, _ := tier.FilterGeneration()
				return fmt.Sprintf("mover target = %s (tier specs %d, gen %d)", got, len(tier.Specs()), gen)
			}
			return ""
		}); f != nil {
			return f
		}
		// ...and the mover's fallback session at the master must be
		// released: only the tier links and the reference-tier links remain.
		wantSessions := len(tier.Specs()) + len(refTier.Specs())
		return reached("fallback session release at the master", func() string {
			if got := backend.Engine.Sessions(); got != wantSessions {
				return fmt.Sprintf("master engine holds %d sessions, want %d", got, wantSessions)
			}
			return ""
		})
	}
	if f := h.play(events, func(ev Event) *Failure {
		if ev.Kind == EvShift && mover == nil {
			return shift()
		}
		return nil
	}); f != nil {
		return f
	}
	if mover == nil {
		if f := shift(); f != nil {
			return f
		}
	}

	// Phase C: post-shift traffic flowed through the widened tier.
	if f := tierSettles("adaptive tier (phase C)"); f != nil {
		return f
	}
	if f := w.allSettled(); f != nil {
		return f
	}
	if f := h.settles("reference tier", refTier.Replica().Store(), refTier.Specs); f != nil {
		return f
	}

	// Budget and control-plane accounting.
	if got := len(tier.Specs()); got > 2 {
		return h.fail("adaptive tier holds %d specs, budget is 2", got)
	}
	tc := ctrl.Counters().Snapshot()
	if tc.RejectionsObserved < 1 {
		return h.fail("control plane observed no rejections")
	}
	if tc.Generalizations < 1 {
		return h.fail("control plane never widened the tier")
	}
	if tc.LeavesMigratedBack < 1 {
		return h.fail("no diverted leaf was recorded as migrated back")
	}
	// Widening volume is accounted asynchronously, once the adopted link
	// reports synced — wait for it rather than racing it.
	if f := reached("widening re-sync accounting", func() string {
		if ctrl.Counters().WidenResyncEntries.Load() < 1 {
			return "widening re-sync pulled no entries"
		}
		return ""
	}); f != nil {
		return f
	}

	// Final check: the adapted tier is byte-identical to the statically
	// widened reference.
	gotFNV := foldEntries(0, tier.Replica().Store().All())
	wantFNV := foldEntries(0, refTier.Replica().Store().All())
	if gotFNV != wantFNV {
		return h.fail("adapted tier content %016x differs from statically-widened reference %016x:\n%s",
			gotFNV, wantFNV, describeDiff(snapshot(tier.Replica().Store()), snapshot(refTier.Replica().Store())))
	}
	return nil
}
