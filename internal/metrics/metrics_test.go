package metrics

import (
	"strings"
	"testing"
)

func sample() *Figure {
	fig := &Figure{
		ID: "test", Title: "Test figure",
		XLabel: "x", YLabel: "y",
		Notes: []string{"a note"},
	}
	a := fig.AddSeries("alpha")
	a.Add(1, 0.5)
	a.Add(2, 0.7)
	b := fig.AddSeries("beta")
	b.Add(1, 0.1)
	b.Add(3, 0.9)
	return fig
}

func TestAddSeriesStable(t *testing.T) {
	// Series handles must stay valid as more series are appended (they are
	// pointers, immune to slice reallocation).
	fig := &Figure{ID: "t"}
	var handles []*Series
	for i := 0; i < 20; i++ {
		handles = append(handles, fig.AddSeries(strings.Repeat("s", i+1)))
	}
	for i, h := range handles {
		h.Add(1, float64(i))
	}
	for i, s := range fig.Series {
		if len(s.Points) != 1 || s.Points[0].Y != float64(i) {
			t.Fatalf("series %d lost its points: %+v", i, s.Points)
		}
	}
}

func TestRender(t *testing.T) {
	var sb strings.Builder
	if err := sample().Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Test figure", "alpha", "beta", "a note", "0.5000", "0.9000", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestCSV(t *testing.T) {
	var sb strings.Builder
	if err := sample().CSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "x,alpha,beta" {
		t.Errorf("csv header = %q", lines[0])
	}
	if len(lines) != 4 { // header + x=1,2,3
		t.Fatalf("csv lines = %d", len(lines))
	}
	if lines[1] != "1,0.5,0.1" {
		t.Errorf("csv row = %q", lines[1])
	}
	// Missing point renders as empty field.
	if lines[2] != "2,0.7," {
		t.Errorf("csv sparse row = %q", lines[2])
	}
}

func TestLookups(t *testing.T) {
	fig := sample()
	if s := fig.SeriesByName("alpha"); s == nil {
		t.Fatal("SeriesByName failed")
	}
	if s := fig.SeriesByName("gamma"); s != nil {
		t.Fatal("missing series found")
	}
}
