package sim

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"filterdir/internal/metrics"
)

// testConfig keeps the shape tests quick; the full-scale runs live in
// cmd/dirsim.
func testConfig() Config {
	return Config{
		Employees:       2500,
		MeasureQueries:  2500,
		WarmupQueries:   2500,
		BudgetFractions: []float64{0.02, 0.05, 0.10, 0.20, 0.35},
		Updates:         1500,
		Seed:            1,
		PayloadBytes:    128,
	}
}

// figures runs each experiment at testConfig at most once per package run:
// the shape tests and the golden test read the same figure.
var figures = func() map[string]func() (*metrics.Figure, error) {
	m := make(map[string]func() (*metrics.Figure, error), len(experiments))
	for _, x := range experiments {
		m[x.id] = sync.OnceValues(func() (*metrics.Figure, error) { return x.run(testConfig()) })
	}
	return m
}()

// figure is experiment id's figure at testConfig.
func figure(t *testing.T, id string) *metrics.Figure {
	t.Helper()
	fig, err := figures[id]()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return fig
}

// yAt returns s's Y at x (ok=false when s has no point there).
func yAt(s *metrics.Series, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// maxY returns the largest Y of s (0 for none).
func maxY(s *metrics.Series) float64 {
	max := 0.0
	for _, p := range s.Points {
		if p.Y > max {
			max = p.Y
		}
	}
	return max
}

func series(t *testing.T, fig *metrics.Figure, name string) *metrics.Series {
	t.Helper()
	for _, s := range fig.Series {
		if s.Name == name {
			if len(s.Points) == 0 {
				t.Fatalf("%s: series %q empty", fig.ID, name)
			}
			return s
		}
	}
	t.Fatalf("%s: series %q missing", fig.ID, name)
	return nil
}

func TestTable1Shape(t *testing.T) {
	fig := figure(t, "table1")
	measured := series(t, fig, "measured %")
	paper := series(t, fig, "paper %")
	for _, p := range paper.Points {
		got, ok := yAt(measured, p.X)
		if !ok {
			t.Fatalf("measured missing x=%v", p.X)
		}
		if math.Abs(got-p.Y) > 3 {
			t.Errorf("mix for kind %v: measured %.1f%%, paper %.1f%%", p.X, got, p.Y)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	fig := figure(t, "figure4")
	filter := series(t, fig, "filter-based")
	subtree := series(t, fig, "subtree-based")

	// Filter beats subtree at every replica size.
	for _, p := range filter.Points {
		sv, ok := yAt(subtree, p.X)
		if !ok {
			t.Fatalf("subtree missing x=%v", p.X)
		}
		if p.Y <= sv {
			t.Errorf("at size %.2f: filter %.3f <= subtree %.3f", p.X, p.Y, sv)
		}
	}
	// The paper's headline: hit ratio at least 0.5 replicating under 10 %.
	if y, ok := yAt(filter, 0.10); !ok || y < 0.5 {
		t.Errorf("filter hit ratio at 10%% = %.3f, want >= 0.5", y)
	}
	// Filter curve is monotone non-decreasing within noise.
	for i := 1; i < len(filter.Points); i++ {
		if filter.Points[i].Y < filter.Points[i-1].Y-0.08 {
			t.Errorf("filter curve drops sharply at %.2f: %.3f -> %.3f",
				filter.Points[i].X, filter.Points[i-1].Y, filter.Points[i].Y)
		}
	}
	// Subtree replicas cannot selectively replicate a flat namespace: at
	// small sizes they answer (almost) nothing.
	if y, _ := yAt(subtree, 0.02); y > 0.05 {
		t.Errorf("subtree hit ratio at 2%% = %.3f, want ~0", y)
	}
}

func TestFigure5Shape(t *testing.T) {
	fig := figure(t, "figure5")
	small := series(t, fig, "filter R=6000")
	large := series(t, fig, "filter R=10000")
	// The smaller revolution interval adapts faster: its hit ratio is at
	// least as high at every budget (within noise).
	better := 0
	for _, p := range small.Points {
		lv, ok := yAt(large, p.X)
		if !ok {
			t.Fatalf("R=10000 missing x=%v", p.X)
		}
		if p.Y+0.03 < lv {
			t.Errorf("at size %.2f: R=6000 %.3f well below R=10000 %.3f", p.X, p.Y, lv)
		}
		if p.Y > lv {
			better++
		}
	}
	if better < 2 {
		t.Errorf("R=6000 better at only %d points; adaptation advantage not visible", better)
	}
}

func TestFigure6Shape(t *testing.T) {
	fig := figure(t, "figure6")
	filter := series(t, fig, "filter-based")
	subtree := series(t, fig, "subtree-based")

	// Filter reaches a hit ratio beyond anything subtree manages, and at
	// the subtree's best hit ratio, the filter traffic for a comparable or
	// better hit ratio is smaller.
	bestSub := 0.0
	bestSubTraffic := 0.0
	for _, p := range subtree.Points {
		if p.X > bestSub {
			bestSub, bestSubTraffic = p.X, p.Y
		}
	}
	if bestSub == 0 {
		t.Skip("subtree never hit at this scale")
	}
	for _, p := range filter.Points {
		if p.X >= bestSub {
			if p.Y >= bestSubTraffic {
				t.Errorf("filter traffic %.0f at hit %.2f not below subtree %.0f at hit %.2f",
					p.Y, p.X, bestSubTraffic, bestSub)
			}
			return
		}
	}
	t.Errorf("filter never reached subtree's best hit ratio %.2f", bestSub)
}

func TestFigure7Shape(t *testing.T) {
	fig := figure(t, "figure7")
	small := series(t, fig, "filter R=6000")
	large := series(t, fig, "filter R=10000")
	subtree := series(t, fig, "subtree-based")

	// Department entries barely change: subtree traffic stays tiny
	// compared to the filter replica's revolution-driven traffic.
	if maxY(subtree) >= maxY(small) {
		t.Errorf("subtree traffic %.0f not below filter traffic %.0f", maxY(subtree), maxY(small))
	}
	// The smaller interval pays at least as much total traffic.
	sumS, sumL := 0.0, 0.0
	for _, p := range small.Points {
		sumS += p.Y
	}
	for _, p := range large.Points {
		sumL += p.Y
	}
	if sumS < sumL*0.9 {
		t.Errorf("R=6000 total traffic %.0f unexpectedly below R=10000 %.0f", sumS, sumL)
	}
}

func testFigure89Shape(t *testing.T, fig *metrics.Figure) {
	t.Helper()
	user := series(t, fig, "user queries only")
	gen := series(t, fig, "generalized only")
	both := series(t, fig, "generalized + user")

	for _, s := range []*metrics.Series{user, gen, both} {
		// Monotone non-decreasing within noise.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y < s.Points[i-1].Y-0.05 {
				t.Errorf("%s: %s drops at %v: %.3f -> %.3f", fig.ID, s.Name,
					s.Points[i].X, s.Points[i-1].Y, s.Points[i].Y)
			}
		}
	}
	// Generalized filters beat pure user-query caching, and the combination
	// is at least as good as either (within noise) at the largest sweep
	// point.
	last := user.Points[len(user.Points)-1].X
	uy, _ := yAt(user, last)
	gy, _ := yAt(gen, last)
	by, _ := yAt(both, last)
	if gy <= uy {
		t.Errorf("%s: generalized %.3f not above user-only %.3f", fig.ID, gy, uy)
	}
	if by < uy-0.03 || by < gy-0.07 {
		t.Errorf("%s: combined %.3f below components (user %.3f, gen %.3f)", fig.ID, by, uy, gy)
	}
	// The user-query curve saturates: the last doubling adds little.
	mid, _ := yAt(user, 150)
	if uy-mid > 0.15 {
		t.Errorf("%s: user-query curve still climbing steeply: %.3f -> %.3f", fig.ID, mid, uy)
	}
}

func TestFigure8Shape(t *testing.T) {
	testFigure89Shape(t, figure(t, "figure8"))
}

func TestFigure9Shape(t *testing.T) {
	testFigure89Shape(t, figure(t, "figure9"))
}

func TestMailLocationShape(t *testing.T) {
	fig := figure(t, "mail-location")
	s := series(t, fig, "hit ratio")
	genMail, _ := yAt(s, 1)
	cacheMail, _ := yAt(s, 2)
	loc, _ := yAt(s, 3)
	// Unorganized mail local parts: prefix generalization buys little over
	// caching; most of its "hits" are just repeats.
	if genMail > cacheMail+0.25 {
		t.Errorf("mail generalization unexpectedly effective: gen %.3f vs cache %.3f", genMail, cacheMail)
	}
	// The fully replicated location tree answers everything.
	if loc != 1.0 {
		t.Errorf("location hit ratio = %.3f, want 1.0", loc)
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("nope", testConfig()); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestRenderAndCSV(t *testing.T) {
	fig := figure(t, "table1")
	for _, write := range []func(io.Writer) error{fig.Render, fig.CSV} {
		var sb strings.Builder
		if err := write(&sb); err != nil || sb.Len() == 0 {
			t.Errorf("%d bytes of output, error %v", sb.Len(), err)
		}
	}
}

func TestOverheadShape(t *testing.T) {
	fig := figure(t, "overhead")
	checks := series(t, fig, "containment checks per query")
	// Per-query containment checks grow with the stored-filter count
	// (Section 7.4: overhead proportional to the number of stored filters).
	for i := 1; i < len(checks.Points); i++ {
		if checks.Points[i].Y < checks.Points[i-1].Y {
			t.Errorf("checks per query dropped at %v: %.1f -> %.1f",
				checks.Points[i].X, checks.Points[i-1].Y, checks.Points[i].Y)
		}
	}
	times := series(t, fig, "us per query (templates)")
	if maxY(times) <= 0 {
		t.Error("no time measured")
	}
}

func TestContainmentStatsShape(t *testing.T) {
	fig := figure(t, "containment-stats")
	s := series(t, fig, "% of decisions")
	fallback, _ := yAt(s, 5)
	if fallback > 5 {
		t.Errorf("generic fallback handles %.1f%% of decisions; templates should cover the workload", fallback)
	}
	pruned, _ := yAt(s, 3)
	compiled, _ := yAt(s, 2)
	if pruned+compiled < 50 {
		t.Errorf("template machinery resolves only %.1f%% of cross-template decisions", pruned+compiled)
	}
	plans := series(t, fig, "plans compiled")
	if maxY(plans) < 1 || maxY(plans) > 100 {
		t.Errorf("plans compiled = %.0f, want a small per-pair count", maxY(plans))
	}
}
