package sim

import (
	"time"

	"filterdir/internal/containment"
	"filterdir/internal/metrics"
	"filterdir/internal/workload"
)

// Overhead regenerates the Section 7.4 observation: the additional query
// processing of filter-based replication is proportional to the number of
// stored filters, and template-based containment keeps the constant small.
// For each stored-filter count the experiment measures the mean
// answerability-decision time per query and the number of containment
// checks performed, with the checker's template machinery enabled.
func Overhead(cfg Config) (*metrics.Figure, error) {
	e, err := buildEnv(cfg)
	if err != nil {
		return nil, err
	}
	fig := &metrics.Figure{
		ID: "overhead", Title: "Query processing overhead vs # of stored filters (Section 7.4)",
		XLabel: "# stored filters", YLabel: "microseconds per query",
		Notes: []string{
			"containment checks per query are also reported as a series",
			"paper: overhead proportional to stored filters; template containment keeps it minor"},
	}
	timeS := fig.AddSeries("us per query (templates)")
	checksS := fig.AddSeries("containment checks per query")

	counts := []int{10, 50, 100, 200, 400}
	for _, n := range counts {
		// Install n block filters.
		gW := workload.NewGenerator(e.dir, e.traceConfig())
		sel := e.warmSelector(serialRules(), gW, workload.KindSerial, cfg.WarmupQueries, 1<<30)
		top := sel.TopCandidatesLimit(n, e.dir.EmployeeCount/50+5)
		node, err := newFilterNode(e.eng, containment.NewChecker())
		if err != nil {
			return nil, err
		}
		for _, q := range top {
			if err := node.AddFilter(q); err != nil {
				return nil, err
			}
		}

		// Measure the answerability decision (not result assembly): misses
		// exercise the full stored-filter scan, hits stop at the container.
		g := workload.NewGenerator(e.dir, e.traceConfig())
		queries := make([]workload.TraceQuery, cfg.MeasureQueries)
		for i := range queries {
			queries[i] = g.NextOfKind(workload.KindSerial)
		}
		before := node.Replica.Counters().ContainmentChecks.Load()
		start := time.Now()
		for _, tq := range queries {
			node.Replica.Answer(tq.Query)
		}
		elapsed := time.Since(start)
		after := node.Replica.Counters().ContainmentChecks.Load()

		perQuery := float64(elapsed.Microseconds()) / float64(len(queries))
		checks := float64(after-before) / float64(len(queries))
		timeS.Add(float64(node.Replica.StoredCount()), perQuery)
		checksS.Add(float64(node.Replica.StoredCount()), checks)
	}
	return fig, nil
}

// ContainmentStats reports how the checker resolved containment decisions
// under the mixed enterprise workload: the share of same-template fast
// paths, compiled evaluations, impossible-pair prunes and pairs too
// complex to expand — the quantities Section 3.4.2's template argument predicts.
func ContainmentStats(cfg Config) (*metrics.Figure, error) {
	e, err := buildEnv(cfg)
	if err != nil {
		return nil, err
	}
	checker := containment.NewChecker()
	node, err := newFilterNode(e.eng, checker)
	if err != nil {
		return nil, err
	}
	win := &userWindow{checker: checker, size: 50}
	// A mixed stored set: serial blocks, a division filter, the location
	// tree.
	gW := workload.NewGenerator(e.dir, e.traceConfig())
	sel := e.warmSelector(serialRules(), gW, workload.KindSerial, cfg.WarmupQueries, 1<<30)
	for _, q := range sel.TopCandidatesLimit(100, e.dir.EmployeeCount/50+5) {
		if err := node.AddFilter(q); err != nil {
			return nil, err
		}
	}

	g := workload.NewGenerator(e.dir, e.traceConfig())
	for i := 0; i < cfg.MeasureQueries; i++ {
		tq := g.Next()
		if _, hit, _ := node.Replica.Answer(tq.Query); !hit {
			win.serve(tq.Query)
		}
	}
	st := checker.Stats()
	total := float64(st.SameTemplate + st.Compiled + st.ImpossiblePruned + st.AlwaysAccepted + st.Fallback)
	if total == 0 {
		total = 1
	}
	fig := &metrics.Figure{
		ID: "containment-stats", Title: "Containment decision paths under the Table 1 workload",
		XLabel: "path", YLabel: "% of decisions",
		Notes: []string{
			"x=1 same-template (Prop 3)  x=2 compiled pair (Prop 2)  x=3 impossible-pair prune",
			"x=4 always-contained pair   x=5 pair too complex to expand (not contained)",
			"plans compiled: one per distinct template pair"},
	}
	s := fig.AddSeries("% of decisions")
	s.Add(1, 100*float64(st.SameTemplate)/total)
	s.Add(2, 100*float64(st.Compiled)/total)
	s.Add(3, 100*float64(st.ImpossiblePruned)/total)
	s.Add(4, 100*float64(st.AlwaysAccepted)/total)
	s.Add(5, 100*float64(st.Fallback)/total)
	plans := fig.AddSeries("plans compiled")
	plans.Add(2, float64(st.PlansCompiled))
	return fig, nil
}
