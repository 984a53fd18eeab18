package sim

import (
	"flag"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"filterdir/internal/metrics"
)

var updateFigures = flag.Bool("figures.update", false, "rewrite "+goldenPath+" from this run")

const goldenPath = "testdata/figures.golden"

const goldenHeader = `# Every count of the paper's evaluation, a point a row: figure, series, point
# index, x, y. Checked to the digit by TestGoldenFigures; ` + "`make figures`" + ` rewrites it.
`

// figureRun is one figure TestGoldenFigures pins: its id and how to compute it.
type figureRun struct {
	id  string
	run func() (*metrics.Figure, error)
}

// goldenRows is every count point of fig as a tab-separated row: figure,
// series, point index (not merged by x as Figure.CSV does: figures 6 and 7
// repeat an x), x, y. Overhead's time per query, a duration, is left out.
func goldenRows(fig *metrics.Figure) []string {
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	var rows []string
	for _, s := range fig.Series {
		if fig.ID == "overhead" && s.Name == "us per query (templates)" {
			continue
		}
		for i, p := range s.Points {
			rows = append(rows, strings.Join([]string{fig.ID, s.Name, strconv.Itoa(i), num(p.X), num(p.Y)}, "\t"))
		}
	}
	return rows
}

// TestGoldenFigures compares every point of every experiment (at
// testConfig) and pinned count to testdata/figures.golden, a subtest a
// figure, so a change to a paper figure is a diff in review; `make figures`
// rewrites the file.
func TestGoldenFigures(t *testing.T) {
	var runs []figureRun
	for _, x := range experiments {
		runs = append(runs, figureRun{x.id, figures[x.id]})
	}
	runs = append(runs, pinned...)

	// golden holds the file's rows by figure, in file order.
	golden := map[string][]string{}
	figs := make([]*metrics.Figure, len(runs))
	if *updateFigures {
		t.Cleanup(func() {
			if t.Failed() {
				return
			}
			var rows []string
			for _, fig := range figs {
				if fig == nil {
					t.Error("-figures.update needs every figure; run without a subtest filter")
					return
				}
				rows = append(rows, goldenRows(fig)...)
			}
			if err := os.WriteFile(goldenPath, []byte(goldenHeader+strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
				t.Error(err)
			}
		})
	} else {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (make figures writes it)", err)
		}
		for _, row := range strings.Split(string(data), "\n") {
			if row != "" && !strings.HasPrefix(row, "#") {
				id, _, _ := strings.Cut(row, "\t")
				golden[id] = append(golden[id], row)
			}
		}
	}

	// Each run is single-threaded and deterministic: run them side by side,
	// at most two at a time so the live heap stays small.
	slots := make(chan struct{}, min(2, runtime.GOMAXPROCS(0)))
	for i, r := range runs {
		want := golden[r.id]
		delete(golden, r.id)
		t.Run(r.id, func(t *testing.T) {
			t.Parallel()
			slots <- struct{}{}
			fig, err := r.run()
			<-slots
			if err != nil {
				t.Fatal(err)
			}
			figs[i] = fig
			if !*updateFigures {
				compareRows(t, goldenRows(fig), want)
			}
		})
	}
	for id := range golden {
		t.Errorf("figure %s: in %s but not computed", id, goldenPath)
	}
}

// compareRows compares the computed rows got with the golden rows want point
// by point, in series order, and reports each point that differs, is missing
// or is extra as figure / series / point index / x / y.
func compareRows(t *testing.T, got, want []string) {
	t.Helper()
	show := strings.NewReplacer("\t", " / ").Replace
	for i := 0; i < max(len(got), len(want)); i++ {
		switch {
		case i >= len(want):
			t.Errorf("%s: not in %s", show(got[i]), goldenPath)
		case i >= len(got):
			t.Errorf("%s: in %s but not computed", show(want[i]), goldenPath)
		case got[i] != want[i]:
			t.Errorf("%s, golden %s", show(got[i]), show(want[i]))
		}
	}
}
