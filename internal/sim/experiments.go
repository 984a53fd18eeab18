package sim

import (
	"fmt"

	"filterdir/internal/containment"
	"filterdir/internal/dn"
	"filterdir/internal/metrics"
	"filterdir/internal/query"
	"filterdir/internal/selection"
	"filterdir/internal/workload"
)

// serialRules are the generalization rules for the serial-number workload:
// block-granularity (4-char) and country-granularity (2-char) prefixes of
// the structured serialNumber attribute.
func serialRules() []selection.Rule {
	return []selection.Rule{
		selection.PrefixRule{Attr: "serialnumber", PrefixLen: workload.SerialPrefixLen},
		selection.PrefixRule{Attr: "serialnumber", PrefixLen: 2},
	}
}

// deptRules are the generalization rules for the department workload:
// dept-code prefix groups and full-division widening.
func deptRules() []selection.Rule {
	return []selection.Rule{
		selection.PrefixRule{Attr: "dept", PrefixLen: 3},
		selection.WidenRule{DropAttr: "dept"},
	}
}

// rootBase widens a query's base to the DIT root: base generalization, the
// natural first step when deriving replication candidates.
func rootBase(q query.Query) query.Query {
	out := q
	out.Base = dn.Root
	return out
}

// Table1 regenerates the workload-mix table from a generated trace.
func Table1(cfg Config) (*metrics.Figure, error) {
	e, err := buildEnv(cfg)
	if err != nil {
		return nil, err
	}
	tc := e.traceConfig()
	tc.TemporalRepeat = 0
	g := workload.NewGenerator(e.dir, tc)
	n := cfg.MeasureQueries * 4
	trace := make([]workload.TraceQuery, n)
	for i := range trace {
		trace[i] = g.Next()
	}
	counts := workload.MixCounts(trace)
	fig := &metrics.Figure{
		ID: "table1", Title: "Workload distribution by query type",
		XLabel: "query type", YLabel: "% of workload",
		Notes: []string{
			"x=1 (serialNumber=_)  x=2 (mail=_)  x=3 (&(dept=_)(div=_))  x=4 (location=_)",
			"paper: 58 / 24 / 16 / 2",
		},
	}
	measured := fig.AddSeries("measured %")
	paperS := fig.AddSeries("paper %")
	paperVals := map[workload.QueryKind]float64{
		workload.KindSerial: 58, workload.KindMail: 24,
		workload.KindDept: 16, workload.KindLocation: 2,
	}
	for _, k := range []workload.QueryKind{workload.KindSerial, workload.KindMail, workload.KindDept, workload.KindLocation} {
		measured.Add(float64(k), 100*float64(counts[k])/float64(n))
		paperS.Add(float64(k), paperVals[k])
	}
	return fig, nil
}

// runHits measures the hit ratio of a filter or subtree node over n queries
// of one kind. A query the node misses is served by the user-query window
// win, when there is one (nil: none).
func (e *env) runHits(node *filterNode, g *workload.Generator, kind workload.QueryKind, n int, win *userWindow) float64 {
	hits := 0
	for i := 0; i < n; i++ {
		tq := g.NextOfKind(kind)
		if _, hit, _ := node.Replica.Answer(tq.Query); hit || win != nil && win.serve(tq.Query) {
			hits++
		}
	}
	return float64(hits) / float64(n)
}

// warmSelector feeds n warm-up queries of a kind into a fresh selector.
func (e *env) warmSelector(rules []selection.Rule, g *workload.Generator, kind workload.QueryKind, n, budget int) *selection.Selector {
	sel := selection.NewSelector(selection.NewGeneralizer(rules...), e.sizeOf, budget, 0)
	for i := 0; i < n; i++ {
		sel.Observe(rootBase(g.NextOfKind(kind).Query))
	}
	return sel
}

// setupSerialFilterNode warms the selector on the serial workload and
// installs the selected filters.
func (e *env) setupSerialFilterNode(budget int) (*filterNode, error) {
	g := workload.NewGenerator(e.dir, e.traceConfig())
	sel := e.warmSelector(serialRules(), g, workload.KindSerial, e.cfg.WarmupQueries, budget)
	node, err := newFilterNode(e.eng, nil)
	if err != nil {
		return nil, err
	}
	if err := node.ApplyDelta(sel.ForceRevolution()); err != nil {
		return nil, err
	}
	return node, nil
}

// Figure4 regenerates hit-ratio vs replica size for the serial-number
// query: filter-based vs subtree-based replication.
func Figure4(cfg Config) (*metrics.Figure, error) {
	e, err := buildEnv(cfg)
	if err != nil {
		return nil, err
	}
	fig := &metrics.Figure{
		ID: "figure4", Title: "Hit ratio vs replica size — (serialNumber=_) query",
		XLabel: "replica size", YLabel: "hit ratio",
		Notes: []string{"replica size as fraction of person entries",
			"paper shape: filter reaches 0.5 below 0.10; subtree needs whole country subtrees"},
	}
	filterS := fig.AddSeries("filter-based")
	subtreeS := fig.AddSeries("subtree-based")

	// Sample trace for subtree access shares.
	gShare := workload.NewGenerator(e.dir, e.traceConfig())
	sample := make([]workload.TraceQuery, 3000)
	for i := range sample {
		sample[i] = gShare.NextOfKind(workload.KindSerial)
	}
	cands := countryCands(e.dir, sample)

	for _, frac := range cfg.BudgetFractions {
		budget := int(frac * float64(e.dir.EmployeeCount))

		node, err := e.setupSerialFilterNode(budget)
		if err != nil {
			return nil, err
		}
		gm := workload.NewGenerator(e.dir, e.traceConfig())
		filterS.Add(frac, e.runHits(node, gm, workload.KindSerial, cfg.MeasureQueries, nil))

		sub, err := newSubtreeNode(e.eng, pickSubtrees(cands, budget))
		if err != nil {
			return nil, err
		}
		gs := workload.NewGenerator(e.dir, e.traceConfig())
		subtreeS.Add(frac, e.runHits(sub, gs, workload.KindSerial, cfg.MeasureQueries, nil))
	}
	return fig, nil
}

// runDynamicDept runs the department workload with periodic revolutions at
// interval r and access-pattern drift, returning the hit ratio and the
// node (for traffic accounting).
func (e *env) runDynamicDept(budget, r, n int, updatesPerPhase int) (float64, *filterNode, error) {
	g := workload.NewGenerator(e.dir, e.traceConfig())
	sel := selection.NewSelector(selection.NewGeneralizer(deptRules()...), e.sizeOf, budget, r)
	node, err := newFilterNode(e.eng, nil)
	if err != nil {
		return 0, nil, err
	}
	// Seed from a short warm-up; revolutions fired mid-warm-up must be
	// applied too.
	for i := 0; i < r; i++ {
		if d := sel.Observe(rootBase(g.NextOfKind(workload.KindDept).Query)); d != nil {
			if err := node.ApplyDelta(d); err != nil {
				return 0, nil, err
			}
		}
	}
	if err := node.ApplyDelta(sel.ForceRevolution()); err != nil {
		return 0, nil, err
	}

	upd := e.updater()
	drift := n / 2
	hits := 0
	for i := 0; i < n; i++ {
		if drift > 0 && i > 0 && i%drift == 0 {
			g.Reshuffle(e.cfg.Seed + int64(i))
			if updatesPerPhase > 0 {
				if _, err := upd.Apply(updatesPerPhase); err != nil {
					return 0, nil, err
				}
				if err := node.SyncAll(); err != nil {
					return 0, nil, err
				}
			}
		}
		tq := g.NextOfKind(workload.KindDept)
		_, hit, _ := node.Replica.Answer(tq.Query)
		if hit {
			hits++
		}
		if d := sel.Observe(rootBase(tq.Query)); d != nil {
			if err := node.ApplyDelta(d); err != nil {
				return 0, nil, err
			}
		}
	}
	return float64(hits) / float64(n), node, nil
}

// deptIntervals scales the paper's revolution intervals (R=6000, R=10000
// queries) to the configured run length, preserving their 6:10 ratio.
func (cfg Config) deptIntervals() (small, large int) {
	large = cfg.MeasureQueries / 2
	if large < 10 {
		large = 10
	}
	small = large * 6 / 10
	return small, large
}

// Figure5 regenerates hit-ratio vs replica size for the department query at
// two revolution intervals.
func Figure5(cfg Config) (*metrics.Figure, error) {
	e, err := buildEnv(cfg)
	if err != nil {
		return nil, err
	}
	small, large := cfg.deptIntervals()
	fig := &metrics.Figure{
		ID: "figure5", Title: "Hit ratio vs replica size — (&(dept=_)(div=_)) query",
		XLabel: "replica size", YLabel: "hit ratio",
		Notes: []string{"replica size as fraction of department entries",
			fmt.Sprintf("revolution intervals scaled: R=6000→%d, R=10000→%d queries", small, large),
			"paper shape: smaller revolution interval adapts faster → higher hit ratio"},
	}
	sSmall := fig.AddSeries("filter R=6000")
	sLarge := fig.AddSeries("filter R=10000")
	total := len(e.dir.Departments)
	for _, frac := range cfg.BudgetFractions {
		budget := int(frac * float64(total))
		if budget < 1 {
			budget = 1
		}
		hrSmall, _, err := e.runDynamicDept(budget, small, cfg.MeasureQueries, 0)
		if err != nil {
			return nil, err
		}
		hrLarge, _, err := e.runDynamicDept(budget, large, cfg.MeasureQueries, 0)
		if err != nil {
			return nil, err
		}
		sSmall.Add(frac, hrSmall)
		sLarge.Add(frac, hrLarge)
	}
	return fig, nil
}

// Figure6 regenerates update traffic vs hit ratio for the serial-number
// query: for each replica size, the hit ratio is measured and the
// synchronization traffic of an update burst recorded.
func Figure6(cfg Config) (*metrics.Figure, error) {
	fig := &metrics.Figure{
		ID: "figure6", Title: "Update traffic vs hit ratio — (serialNumber=_) query",
		XLabel: "hit ratio", YLabel: "update traffic (entries)",
		Notes: []string{fmt.Sprintf("%d master updates per point", cfg.Updates),
			"paper shape: subtree traffic far above filter traffic at comparable hit ratios"},
	}
	filterS := fig.AddSeries("filter-based")
	subtreeS := fig.AddSeries("subtree-based")

	for _, frac := range cfg.BudgetFractions {
		// A fresh environment per point keeps the update burst and the
		// directory state identical across budgets.
		e, err := buildEnv(cfg)
		if err != nil {
			return nil, err
		}
		gShare := workload.NewGenerator(e.dir, e.traceConfig())
		sample := make([]workload.TraceQuery, 3000)
		for i := range sample {
			sample[i] = gShare.NextOfKind(workload.KindSerial)
		}
		cands := countryCands(e.dir, sample)
		budget := int(frac * float64(e.dir.EmployeeCount))

		node, err := e.setupSerialFilterNode(budget)
		if err != nil {
			return nil, err
		}
		gm := workload.NewGenerator(e.dir, e.traceConfig())
		hrFilter := e.runHits(node, gm, workload.KindSerial, cfg.MeasureQueries, nil)

		sub, err := newSubtreeNode(e.eng, pickSubtrees(cands, budget))
		if err != nil {
			return nil, err
		}
		gs := workload.NewGenerator(e.dir, e.traceConfig())
		hrSub := e.runHits(sub, gs, workload.KindSerial, cfg.MeasureQueries, nil)

		// One update burst, synced by both replicas.
		upd := e.updater()
		if _, err := upd.Apply(cfg.Updates); err != nil {
			return nil, err
		}
		if err := node.SyncAll(); err != nil {
			return nil, err
		}
		if err := sub.SyncAll(); err != nil {
			return nil, err
		}
		filterS.Add(round2(hrFilter), float64(node.ResyncTraffic.Updates()))
		subtreeS.Add(round2(hrSub), float64(sub.ResyncTraffic.Updates()))
	}
	return fig, nil
}

// Figure7 regenerates update traffic vs hit ratio for the department query
// at two revolution intervals: subtree traffic is negligible (departments
// barely change) while the filter replica pays for revolution fetches,
// more so at the smaller interval.
func Figure7(cfg Config) (*metrics.Figure, error) {
	small, large := cfg.deptIntervals()
	fig := &metrics.Figure{
		ID: "figure7", Title: "Update traffic vs hit ratio — (&(dept=_)(div=_)) query",
		XLabel: "hit ratio", YLabel: "update traffic (entries)",
		Notes: []string{
			"filter traffic includes revolution fetches (component ii of Section 7.3)",
			"paper shape: R=10000 incurs less traffic than R=6000; subtree ≈ 0"},
	}
	sSmall := fig.AddSeries("filter R=6000")
	sLarge := fig.AddSeries("filter R=10000")
	sSub := fig.AddSeries("subtree-based")

	updPerPhase := cfg.Updates / 2
	for _, frac := range cfg.BudgetFractions {
		// Each measurement runs against a fresh environment so the update
		// streams are identical across budgets and intervals.
		for _, variant := range []struct {
			series   *metrics.Series
			interval int
		}{{sSmall, small}, {sLarge, large}} {
			e, err := buildEnv(cfg)
			if err != nil {
				return nil, err
			}
			budget := int(frac * float64(len(e.dir.Departments)))
			if budget < 1 {
				budget = 1
			}
			hr, node, err := e.runDynamicDept(budget, variant.interval, cfg.MeasureQueries, updPerPhase)
			if err != nil {
				return nil, err
			}
			variant.series.Add(round2(hr), float64(node.ResyncTraffic.Updates()+node.FetchTraffic.Updates()))
		}

		// Subtree replica: departments barely change, so its sync traffic
		// stays near zero.
		e, err := buildEnv(cfg)
		if err != nil {
			return nil, err
		}
		budget := int(frac * float64(len(e.dir.Departments)))
		if budget < 1 {
			budget = 1
		}
		gShare := workload.NewGenerator(e.dir, e.traceConfig())
		sample := make([]workload.TraceQuery, 3000)
		for i := range sample {
			sample[i] = gShare.NextOfKind(workload.KindDept)
		}
		sub, err := newSubtreeNode(e.eng, pickSubtrees(divisionCands(e.dir, sample), budget))
		if err != nil {
			return nil, err
		}
		gs := workload.NewGenerator(e.dir, e.traceConfig())
		hrSub := e.runHits(sub, gs, workload.KindDept, cfg.MeasureQueries, nil)
		if _, err := e.updater().Apply(cfg.Updates); err != nil {
			return nil, err
		}
		if err := sub.SyncAll(); err != nil {
			return nil, err
		}
		sSub.Add(round2(hrSub), float64(sub.ResyncTraffic.Updates()))
	}
	return fig, nil
}

// figure89 sweeps hit ratio against the number of stored filters for one
// query kind with three strategies: cached user queries only, generalized
// filters only, and both.
func figure89(cfg Config, kind workload.QueryKind, rules []selection.Rule, id, title string) (*metrics.Figure, error) {
	e, err := buildEnv(cfg)
	if err != nil {
		return nil, err
	}
	fig := &metrics.Figure{
		ID: id, Title: title,
		XLabel: "# stored filters", YLabel: "hit ratio",
		Notes: []string{
			"user-query caching saturates once the window covers the temporal-locality span",
			"storing both gives up to 50 of the n slots to cached user queries: it gains on generalized only",
			"where those hit more often than the generalized filters they displace (paper: 0.5 at 200 filters for serialNumber)"},
	}
	userS := fig.AddSeries("user queries only")
	genS := fig.AddSeries("generalized only")
	bothS := fig.AddSeries("generalized + user")

	// Cap per-filter size at ~2 % of the population: the sweep counts
	// filters, and a bounded replica stores fine-grained ones.
	maxFilterSize := e.dir.EmployeeCount / 50
	if maxFilterSize < 5 {
		maxFilterSize = 5
	}

	counts := []int{10, 25, 50, 100, 150, 200, 300}
	for _, n := range counts {
		// User queries only: cache window of n, no stored filters.
		checkU := containment.NewChecker()
		nodeU, err := newFilterNode(e.eng, checkU)
		if err != nil {
			return nil, err
		}
		gU := workload.NewGenerator(e.dir, e.traceConfig())
		userS.Add(float64(n), e.runHits(nodeU, gU, kind, cfg.MeasureQueries, &userWindow{checker: checkU, size: n}))

		// Generalized only: the n best candidates by benefit, capped at
		// fine granularity (a bounded replica stores small filters).
		gW := workload.NewGenerator(e.dir, e.traceConfig())
		sel := e.warmSelector(rules, gW, kind, cfg.WarmupQueries, 1<<30)
		top := sel.TopCandidatesLimit(n, maxFilterSize)
		nodeG, err := newFilterNode(e.eng, nil)
		if err != nil {
			return nil, err
		}
		for _, q := range top {
			if err := nodeG.AddFilter(q); err != nil {
				return nil, err
			}
		}
		gG := workload.NewGenerator(e.dir, e.traceConfig())
		genS.Add(float64(n), e.runHits(nodeG, gG, kind, cfg.MeasureQueries, nil))

		// Both: the user-query cache saturates at roughly the temporal
		// locality span, so it gets at most 50 slots; the remaining budget
		// goes to generalized filters.
		cacheSlots := n / 2
		if cacheSlots > 50 {
			cacheSlots = 50
		}
		gW2 := workload.NewGenerator(e.dir, e.traceConfig())
		sel2 := e.warmSelector(rules, gW2, kind, cfg.WarmupQueries, 1<<30)
		checkB := containment.NewChecker()
		nodeB, err := newFilterNode(e.eng, checkB)
		if err != nil {
			return nil, err
		}
		for _, q := range sel2.TopCandidatesLimit(n-cacheSlots, maxFilterSize) {
			if err := nodeB.AddFilter(q); err != nil {
				return nil, err
			}
		}
		gB := workload.NewGenerator(e.dir, e.traceConfig())
		bothS.Add(float64(n), e.runHits(nodeB, gB, kind, cfg.MeasureQueries, &userWindow{checker: checkB, size: cacheSlots}))
	}
	return fig, nil
}

// Figure8 regenerates hit ratio vs number of stored filters for the
// serial-number query.
func Figure8(cfg Config) (*metrics.Figure, error) {
	return figure89(cfg, workload.KindSerial, serialRules(),
		"figure8", "Hit ratio vs # of filters — (serialNumber=_) query")
}

// Figure9 regenerates hit ratio vs number of stored filters for the
// department query.
func Figure9(cfg Config) (*metrics.Figure, error) {
	return figure89(cfg, workload.KindDept, deptRules(),
		"figure9", "Hit ratio vs # of filters — (&(dept=_)(div=_)) query")
}

// MailLocation regenerates the Section 7.2(c) observations: mail local
// parts are unorganized, so generalization is ineffective and only
// temporal-locality caching helps; the small location subtree is fully
// replicated for a hit ratio of 1.
func MailLocation(cfg Config) (*metrics.Figure, error) {
	e, err := buildEnv(cfg)
	if err != nil {
		return nil, err
	}
	fig := &metrics.Figure{
		ID: "mail-location", Title: "Other query types (Section 7.2c)",
		XLabel: "case", YLabel: "hit ratio",
		Notes: []string{
			"x=1 mail, generalized filters only (ineffective: unorganized local part)",
			"x=2 mail, cached user queries only (temporal locality)",
			"x=3 location, full location tree replicated (hit ratio 1 at tiny size)"},
	}
	s := fig.AddSeries("hit ratio")

	// Mail with prefix generalization on the local part.
	mailRules := []selection.Rule{selection.PrefixRule{Attr: "mail", PrefixLen: 5}}
	gW := workload.NewGenerator(e.dir, e.traceConfig())
	sel := e.warmSelector(mailRules, gW, workload.KindMail, cfg.WarmupQueries, 1<<30)
	nodeG, err := newFilterNode(e.eng, nil)
	if err != nil {
		return nil, err
	}
	for _, q := range sel.TopCandidatesLimit(200, e.dir.EmployeeCount/50+5) {
		if err := nodeG.AddFilter(q); err != nil {
			return nil, err
		}
	}
	gM := workload.NewGenerator(e.dir, e.traceConfig())
	s.Add(1, e.runHits(nodeG, gM, workload.KindMail, cfg.MeasureQueries, nil))

	checkC := containment.NewChecker()
	nodeC, err := newFilterNode(e.eng, checkC)
	if err != nil {
		return nil, err
	}
	gC := workload.NewGenerator(e.dir, e.traceConfig())
	s.Add(2, e.runHits(nodeC, gC, workload.KindMail, cfg.MeasureQueries, &userWindow{checker: checkC, size: 100}))

	// Location: replicate the entire location tree with one presence
	// filter, which semantically contains every (location=X) lookup.
	nodeL, err := newFilterNode(e.eng, nil)
	if err != nil {
		return nil, err
	}
	locQ := query.MustNew("", query.ScopeSubtree, "(location=*)")
	if err := nodeL.AddFilter(locQ); err != nil {
		return nil, err
	}
	gL := workload.NewGenerator(e.dir, e.traceConfig())
	s.Add(3, e.runHits(nodeL, gL, workload.KindLocation, cfg.MeasureQueries, nil))
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("location tree size: %d of %d total entries", nodeL.Replica.EntryCount(), e.dir.Master.Len()))
	return fig, nil
}

// experiments is every experiment in the order All runs them: its
// figure/table id, the short alias ByID also accepts ("" for none) and the
// function that runs it.
var experiments = []struct {
	id, alias string
	run       func(Config) (*metrics.Figure, error)
}{
	{"table1", "", Table1},
	{"figure4", "fig4", Figure4},
	{"figure5", "fig5", Figure5},
	{"figure6", "fig6", Figure6},
	{"figure7", "fig7", Figure7},
	{"figure8", "fig8", Figure8},
	{"figure9", "fig9", Figure9},
	{"mail-location", "", MailLocation},
	{"overhead", "", Overhead},
	{"containment-stats", "", ContainmentStats},
}

// All runs every experiment.
func All(cfg Config) ([]*metrics.Figure, error) {
	var out []*metrics.Figure
	for _, x := range experiments {
		fig, err := x.run(cfg)
		if err != nil {
			return out, fmt.Errorf("%s: %w", x.id, err)
		}
		out = append(out, fig)
	}
	return out, nil
}

// ByID runs one experiment by its figure/table id or alias.
func ByID(id string, cfg Config) (*metrics.Figure, error) {
	for _, x := range experiments {
		if id == x.id || (id == x.alias && id != "") {
			return x.run(cfg)
		}
	}
	return nil, fmt.Errorf("unknown experiment %q", id)
}

func round2(x float64) float64 {
	return float64(int(x*100+0.5)) / 100
}
