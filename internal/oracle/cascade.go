package oracle

// Cascade (three-tier) presets: master → mid-tier → leaves.
//
// Cascade models the mid-tier exactly as internal/cascade builds it: a
// FilterReplica fed by a session against the master engine, with its own
// resync.Engine over the replica's store serving the leaves. Every exchange
// on either link is checked for exact minimality and convergence against
// its supplier — the master's reference for the mid, the brute-force
// selection over the MID's store for a leaf (transitive equation 3) — in
// particular across master-side journal trims, where the mid absorbs a full
// reload as mass delete+add and the leaves still receive minimal deltas.
//
// CascadeWire stands up the real stack: an ldapnet master, a cascade.Tier in
// the middle served through ldapnet.CascadeBackend, and supervisor-driven
// leaves — one of them with a spec the tier cannot prove contained, which
// must divert to the fallback master — with chaos fault injection on both
// links.

import (
	"math/rand"
	"time"

	"filterdir/internal/ldapnet"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
	"filterdir/internal/sim"
	"filterdir/internal/supervisor"
)

// cascadeMidSpec is the mid-tier's replicated content: a disjunction wide
// enough to contain every leaf spec below.
func cascadeMidSpec() query.Query {
	return query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(|(grp=0)(grp=1))")
}

// cascadeLeafSpecs are the downstream specs, all provably contained in the
// mid spec: a disjunct member, a conjunctive narrowing, and an
// attribute-selected view.
func cascadeLeafSpecs() []query.Query {
	return []query.Query{
		query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(grp=1)"),
		query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(&(grp=0)(val>=2))"),
		query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(grp=1)", "cn", "grp"),
	}
}

// genCascadeHistory mixes master operations, mid-tier sync exchanges and
// leaf polls (both with lost responses), and server-side leaf session
// ends. Rep == len(leaves) encodes "mid sync"; lower values name a leaf. A
// mid sync plus one poll per leaf is appended so every history ends with a
// full transitive convergence check.
func genCascadeHistory(cfg Config, hseed int64) []Event {
	gen := sim.NewOpGen(synthConfig(hseed, 0))
	rng := rand.New(rand.NewSource(hseed*2654435761 + 17))
	nLeaves := len(cascadeLeafSpecs())
	events := make([]Event, 0, cfg.Steps+nLeaves+1)
	for i := 0; i < cfg.Steps; i++ {
		r := rng.Float64()
		switch {
		case r < 0.55:
			events = append(events, Event{Kind: EvOp, Op: gen.Next()})
		case r < 0.72:
			events = append(events, Event{Kind: EvPoll, Rep: nLeaves, Lost: rng.Float64() < 0.15})
		case r < 0.94:
			events = append(events, Event{Kind: EvPoll, Rep: rng.Intn(nLeaves), Lost: rng.Float64() < 0.15})
		default:
			events = append(events, Event{Kind: EvEnd, Rep: rng.Intn(nLeaves)})
		}
	}
	events = append(events, Event{Kind: EvPoll, Rep: nLeaves})
	for i := 0; i < nLeaves; i++ {
		events = append(events, Event{Kind: EvPoll, Rep: i})
	}
	return events
}

// runCascade executes one Cascade history. The mid is a consumer of the
// master engine that applies every answer to its FilterReplica
// (incremental batches through ApplySync, full transfers by re-adding the
// stored query: a mass delete+add in the mid store's journal, which the
// downstream engine absorbs into net deltas).
func runCascade(cfg Config, hseed int64, events []Event, rep *Report) *Failure {
	h, f := newHist(cfg, hseed, rep, synthConfig(hseed, cfg.Shards))
	if f != nil {
		return f
	}
	frep, err := replica.NewFilterReplica()
	if err != nil {
		return h.fail("new mid replica: %v", err)
	}
	mid := &consumer{spec: cascadeMidSpec(), content: make(model), frep: frep}
	master, midEng := resync.NewEngine(h.st), resync.NewEngine(frep.Store())
	if rep != nil {
		// Fold both tiers' update streams: master→mid and mid→leaf traffic
		// must be byte-identical across shard counts.
		fold := func(_ string, ups []resync.Update, _ bool) {
			rep.TrafficHash = foldUpdates(rep.TrafficHash, ups)
		}
		master.SetObserver(fold)
		midEng.SetObserver(fold)
	}
	leaves := consumers(cascadeLeafSpecs())
	if f := h.play(events, func(ev Event) *Failure {
		var f *Failure
		switch {
		case ev.Kind == EvPoll && ev.Rep == len(leaves):
			_, f = h.exchange(master, mid, ev.Lost, h.mdl)
		case ev.Kind == EvPoll:
			// A leaf can only be as fresh as its supplier: its reference is
			// the selection over the mid's store, not the master's model.
			_, f = h.exchange(midEng, leaves[ev.Rep], ev.Lost, mid.content)
		case ev.Kind == EvEnd:
			if c := leaves[ev.Rep]; c.begun {
				_ = midEng.End(c.cookie) // leaf learns on its next poll
			}
		}
		return f
	}); f != nil {
		return f
	}
	// The history tail forced a mid sync and a poll per leaf, so every leaf
	// must now transitively equal the selection over the MASTER's model —
	// the equation-3 composition across two tiers.
	for _, c := range leaves {
		if diff := describeDiff(c.content, h.mdl.selection(c.spec)); diff != "" {
			return h.fail("leaf %q not transitively converged to master content:\n%s", c.spec, diff)
		}
	}
	if rep != nil {
		rep.ContentHash = foldContent(rep.ContentHash, mid.content)
		for _, c := range leaves {
			rep.ContentHash = foldContent(rep.ContentHash, c.content)
		}
		rep.ContentHash = foldEntries(rep.ContentHash, h.st.All())
	}
	return nil
}

// genCascadeWireHistory: operations, convergence checkpoints, and
// server-side session ends against the TIER's engine (leaf sessions live
// at the mid-tier, not the master) for one of the two cascaded leaves.
func genCascadeWireHistory(cfg Config, hseed int64) []Event {
	return genCheckpoints(cfg, hseed, hseed*40503+7, 2)
}

// runCascadeWire stands up master → cascade.Tier → leaves with chaos on
// both links, plus one leaf whose spec the tier must reject (diverting it
// to the fallback master) and one leaf attached directly to the master for
// the indistinguishability check.
func runCascadeWire(cfg Config, hseed int64, events []Event, rep *Report) *Failure {
	h, f := newHist(cfg, hseed, rep, synthWireConfig(hseed))
	if f != nil {
		return f
	}
	w := &wireNet{h: h}
	defer w.close()
	// Master link: the tier and the direct/fallback consumers dial dialA.
	masterAddr, dialA, f := w.serve(ldapnet.NewStoreBackend(h.st), true, hseed)
	if f != nil {
		return f
	}
	tier, f := w.tier(masterAddr, dialA, hseed, cascadeMidSpec())
	if f != nil {
		return f
	}
	// Tier link: the leaves dial dialB.
	tierAddr, dialB, f := w.serve(ldapnet.NewCascadeBackend(tier.Replica(), tier, "ldap://"+masterAddr), true, hseed+101)
	if f != nil {
		return f
	}
	leaf := func(spec query.Query, upstream, fallback string, mode supervisor.Mode, dial ldapnet.DialFunc, i int) (*wireLeaf, *Failure) {
		return w.leaf(supervisor.Config{Master: upstream, Fallback: fallback, RetryUpstreamAfter: time.Hour,
			Spec: spec, Mode: mode, Seed: hseed + int64(i), Dial: dial})
	}
	leafSpecs := cascadeLeafSpecs()[:2]
	for i, spec := range leafSpecs {
		mode := supervisor.ModePoll
		if i%2 == 1 {
			mode = supervisor.ModePersist
		}
		if _, f := leaf(spec, tierAddr, masterAddr, mode, dialB, i); f != nil {
			return f
		}
	}
	// The outsider's spec is not contained in the tier's stored queries:
	// it must be rejected and diverted to the fallback master.
	outSpec := query.MustNew(sim.SynthSuffix, query.ScopeSubtree, "(grp=2)")
	outsider, f := leaf(outSpec, tierAddr, masterAddr, supervisor.ModePoll, dialB, 7)
	if f != nil {
		return f
	}
	// Control replica: same spec as the first leaf, attached directly to
	// the master — the cascaded leaf must be indistinguishable from it.
	direct, f := leaf(leafSpecs[0], masterAddr, "", supervisor.ModePoll, dialA, 11)
	if f != nil {
		return f
	}

	if f := h.play(events, func(ev Event) *Failure {
		switch ev.Kind {
		case EvPoll: // checkpoint: tier first, then every leaf
			if f := h.settles("mid tier", tier.Replica().Store(), func() []query.Query {
				return []query.Query{cascadeMidSpec()}
			}); f != nil {
				return f
			}
			return w.allSettled()
		case EvEnd: // operator abandons a leaf session at the TIER
			if c := w.leaves[ev.Rep].sup.Cookie(); c != "" {
				_ = tier.Engine().End(c)
			}
		}
		return nil
	}); f != nil {
		return f
	}

	// Topology assertions: the outsider was rejected by the tier and now
	// synchronizes against the fallback master; the cascaded leaf is
	// indistinguishable from the directly-attached control.
	if got := tier.Counters().Rejected.Load(); got < 1 {
		return h.fail("tier rejected %d sessions, want >= 1 (outsider spec %q)", got, outSpec)
	}
	if got := outsider.sup.Counters().UpstreamFallbacks.Load(); got < 1 {
		return h.fail("outsider leaf never diverted to the fallback master")
	}
	if got := outsider.sup.Target(); got != masterAddr {
		return h.fail("outsider target = %s, want fallback master %s", got, masterAddr)
	}
	if got := tier.Counters().Admitted.Load(); got < int64(len(leafSpecs)) {
		return h.fail("tier admitted %d sessions, want >= %d", got, len(leafSpecs))
	}
	if diff := describeDiff(snapshot(w.leaves[0].frep.Store()), snapshot(direct.frep.Store())); diff != "" {
		return h.fail("leaf-via-tier differs from leaf-attached-direct after convergence:\n%s", diff)
	}
	return nil
}
