// Package metrics provides the labelled data series and rendering helpers
// the experiment harness uses to report each reproduced table and figure.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Point is one measurement: X is the swept parameter, Y the metric.
type Point struct {
	X float64
	Y float64
}

// Series is one labelled curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Figure is a reproduced table or figure: metadata plus one or more series.
type Figure struct {
	ID     string // e.g. "figure4"
	Title  string
	XLabel string
	YLabel string
	Series []*Series
	Notes  []string
}

// AddSeries appends a series and returns it for incremental filling.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Render writes an aligned text table: one row per X value, one column per
// series.
func (f *Figure) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "   %s\n", n)
	}

	// Collect the union of X values in order.
	xs := f.xValues()
	idx := f.seriesIndexes()
	// Header.
	fmt.Fprintf(&b, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %20s", s.Name)
	}
	b.WriteString("\n")
	for _, x := range xs {
		fmt.Fprintf(&b, "%-14.4g", x)
		for i := range f.Series {
			if y, ok := idx[i][x]; ok {
				fmt.Fprintf(&b, " %20.4f", y)
			} else {
				fmt.Fprintf(&b, " %20s", "-")
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "   (y-axis: %s)\n", f.YLabel)
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the figure as x,series1,series2,... rows.
func (f *Figure) CSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("x")
	for _, s := range f.Series {
		b.WriteString(",")
		b.WriteString(strings.ReplaceAll(s.Name, ",", ";"))
	}
	b.WriteString("\n")
	idx := f.seriesIndexes()
	for _, x := range f.xValues() {
		fmt.Fprintf(&b, "%g", x)
		for i := range f.Series {
			if y, ok := idx[i][x]; ok {
				fmt.Fprintf(&b, ",%g", y)
			} else {
				b.WriteString(",")
			}
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *Figure) xValues() []float64 {
	seen := make(map[float64]bool)
	var xs []float64
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

// seriesIndexes builds one X→Y map per series so Render and CSV resolve
// each (x, series) cell in O(1) instead of rescanning the points slice.
// The first point at a given X wins, matching lookup's semantics.
func (f *Figure) seriesIndexes() []map[float64]float64 {
	idx := make([]map[float64]float64, len(f.Series))
	for i, s := range f.Series {
		m := make(map[float64]float64, len(s.Points))
		for _, p := range s.Points {
			if _, ok := m[p.X]; !ok {
				m[p.X] = p.Y
			}
		}
		idx[i] = m
	}
	return idx
}

func lookup(s *Series, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}
