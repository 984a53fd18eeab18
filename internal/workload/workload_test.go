package workload

import (
	"fmt"
	"math"
	"testing"

	"filterdir/internal/query"
)

func smallDir(t testing.TB, employees int) *Directory {
	t.Helper()
	cfg := DefaultDirectoryConfig(employees)
	cfg.PayloadBytes = 64
	d, err := BuildDirectory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildDirectoryStructure(t *testing.T) {
	d := smallDir(t, 1000)
	if d.EmployeeCount < 990 || d.EmployeeCount > 1000 {
		t.Errorf("EmployeeCount = %d", d.EmployeeCount)
	}
	// Target geography ≈ 30 %.
	target := d.Config.Countries[0].Employees
	frac := float64(target) / float64(d.EmployeeCount)
	if frac < 0.28 || frac > 0.32 {
		t.Errorf("target geography fraction = %v", frac)
	}
	// Employees are flat children of the country entry.
	q := query.MustNew("c=us,"+Suffix, query.ScopeSingleLevel, "(objectclass=inetorgperson)")
	res, err := d.Master.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != target {
		t.Errorf("flat children = %d, want %d", len(res.Entries), target)
	}
	// Departments under divisions.
	nd := len(d.Master.MatchAll(query.MustNew("", query.ScopeSubtree, "(objectclass=department)")))
	if nd != d.Config.Divisions*d.Config.DeptsPerDivision {
		t.Errorf("departments = %d", nd)
	}
	// Locations present.
	nl := len(d.Master.MatchAll(query.MustNew("", query.ScopeSubtree, "(objectclass=location)")))
	if nl != d.Config.Locations {
		t.Errorf("locations = %d", nl)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := smallDir(t, 300)
	b := smallDir(t, 300)
	if a.Employees[17].Serial != b.Employees[17].Serial || a.Employees[17].Mail != b.Employees[17].Mail {
		t.Error("directory build not deterministic")
	}
}

func TestSerialStructured(t *testing.T) {
	d := smallDir(t, 500)
	emp := d.Employees[0]
	prefix := d.SerialPrefix(emp.Country, emp.Block)
	if emp.Serial[:SerialPrefixLen] != prefix {
		t.Errorf("serial %q does not start with block prefix %q", emp.Serial, prefix)
	}
	// All employees of one block share the prefix.
	for _, idx := range d.ByCountryBlock[0][0] {
		if d.Employees[idx].Serial[:SerialPrefixLen] != d.SerialPrefix(0, 0) {
			t.Errorf("block member %q lacks prefix", d.Employees[idx].Serial)
		}
	}
}

func TestTraceMixMatchesTable1(t *testing.T) {
	d := smallDir(t, 800)
	cfg := DefaultTraceConfig()
	cfg.TemporalRepeat = 0 // pure mix
	g := NewGenerator(d, cfg)
	const n = 20000
	trace := make([]TraceQuery, n)
	for i := range trace {
		trace[i] = g.Next()
	}
	counts := MixCounts(trace)
	check := func(kind QueryKind, want float64) {
		got := float64(counts[kind]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%v fraction = %.3f, want %.2f±0.02", kind, got, want)
		}
	}
	check(KindSerial, 0.58)
	check(KindMail, 0.24)
	check(KindDept, 0.16)
	check(KindLocation, 0.02)
}

func TestTraceQueriesAnswerable(t *testing.T) {
	d := smallDir(t, 500)
	g := NewGenerator(d, DefaultTraceConfig())
	for i := 0; i < 500; i++ {
		tq := g.Next()
		got := d.Master.MatchAll(tq.Query)
		if tq.Kind != KindDept && len(got) == 0 {
			t.Fatalf("query %s matched nothing", tq.Query)
		}
		if tq.Kind == KindSerial && len(got) != 1 {
			t.Fatalf("serial query %s matched %d entries", tq.Query, len(got))
		}
	}
}

func TestTraceSkewAndLocality(t *testing.T) {
	d := smallDir(t, 2000)
	cfg := DefaultTraceConfig()
	cfg.TemporalRepeat = 0
	g := NewGenerator(d, cfg)
	local, total := 0, 0
	blockHits := make(map[string]int)
	for i := 0; i < 8000; i++ {
		tq := g.NextOfKind(KindSerial)
		serial := tq.Query.Filter.SlotValues()[0]
		total++
		if serial[:2] == "10" { // first country code
			local++
		}
		blockHits[serial[:SerialPrefixLen]]++
	}
	frac := float64(local) / float64(total)
	// Expected: UniformFraction lands ~30% locally, the rest follows
	// LocalFraction: 0.25*0.3 + 0.75*0.85 ≈ 0.71.
	if frac < 0.64 || frac > 0.78 {
		t.Errorf("local fraction = %v, want ≈0.71", frac)
	}
	// Skew: the top 10% of blocks should carry well over half the accesses.
	var counts []int
	for _, c := range blockHits {
		counts = append(counts, c)
	}
	top := 0
	for i := 0; i < len(counts); i++ {
		for j := i + 1; j < len(counts); j++ {
			if counts[j] > counts[i] {
				counts[i], counts[j] = counts[j], counts[i]
			}
		}
	}
	take := len(counts) / 10
	if take == 0 {
		take = 1
	}
	for i := 0; i < take; i++ {
		top += counts[i]
	}
	if float64(top)/float64(total) < 0.5 {
		t.Errorf("top-decile block share = %v, want skewed (>0.5)", float64(top)/float64(total))
	}
}

func TestTemporalRepeat(t *testing.T) {
	d := smallDir(t, 500)
	cfg := DefaultTraceConfig()
	cfg.TemporalRepeat = 0.5
	g := NewGenerator(d, cfg)
	seen := make(map[string]bool)
	repeats := 0
	const n = 4000
	for i := 0; i < n; i++ {
		tq := g.Next()
		k := tq.Query.Key()
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	if float64(repeats)/n < 0.3 {
		t.Errorf("repeat fraction = %v, want ≥0.3 with TemporalRepeat=0.5", float64(repeats)/n)
	}
}

func TestUpdaterAppliesStream(t *testing.T) {
	d := smallDir(t, 400)
	before := d.Master.Len()
	beforeCSN := d.Master.LastCSN()
	u := NewUpdater(d, DefaultUpdateConfig())
	applied, err := u.Apply(200)
	if err != nil {
		t.Fatal(err)
	}
	if applied < 190 {
		t.Errorf("applied = %d of 200", applied)
	}
	if d.Master.LastCSN() == beforeCSN {
		t.Error("no changes journaled")
	}
	// Adds and deletes roughly balance; the store should not be wildly off.
	after := d.Master.Len()
	if after < before-100 || after > before+100 {
		t.Errorf("store size swung from %d to %d", before, after)
	}
	// Queries keep working after updates.
	g := NewGenerator(d, DefaultTraceConfig())
	for i := 0; i < 100; i++ {
		tq := g.Next()
		d.Master.MatchAll(tq.Query)
	}
}

func TestUpdaterDeterministic(t *testing.T) {
	d1 := smallDir(t, 300)
	d2 := smallDir(t, 300)
	u1 := NewUpdater(d1, DefaultUpdateConfig())
	u2 := NewUpdater(d2, DefaultUpdateConfig())
	if _, err := u1.Apply(100); err != nil {
		t.Fatal(err)
	}
	if _, err := u2.Apply(100); err != nil {
		t.Fatal(err)
	}
	if d1.Master.LastCSN() != d2.Master.LastCSN() {
		t.Errorf("CSNs diverge: %d vs %d", d1.Master.LastCSN(), d2.Master.LastCSN())
	}
	if d1.Master.Len() != d2.Master.Len() {
		t.Errorf("sizes diverge: %d vs %d", d1.Master.Len(), d2.Master.Len())
	}
}

func TestEntryPayloadSize(t *testing.T) {
	cfg := DefaultDirectoryConfig(100)
	cfg.PayloadBytes = 2048
	d, err := BuildDirectory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := d.Master.Get(d.Employees[0].DN)
	if !ok {
		t.Fatal("employee missing")
	}
	if e.ByteSize() < 2048 {
		t.Errorf("entry size = %d, want ≥ payload", e.ByteSize())
	}
}

// SerialPrefix returns the block-granularity serial prefix for country ci,
// block b — the value space of the generalized filters
// (serialNumber=<prefix>*).
func (d *Directory) SerialPrefix(ci, block int) string {
	return fmt.Sprintf("%02d%03d", ci+10, block)
}
