package workload

import (
	"strings"
	"testing"
)

// phasedConfig is a trace that shifts its geography from country 0 to
// country 1 after 400 queries — the traffic shift the adaptive tiering
// experiments drive.
func phasedConfig() TraceConfig {
	cfg := DefaultTraceConfig()
	cfg.Seed = 21
	cfg.TemporalRepeat = 0 // no verbatim repeats: every query samples the live regime
	cfg.UniformFraction = 0
	cfg.LocalFraction = 0.95
	cfg.Phases = []Phase{
		{AfterOps: 400, LocalCountry: 1, LocalFraction: 0.95, ReshuffleSeed: 5},
	}
	return cfg
}

// serialCountry maps a serial-prototype query back to the country of the
// employee it targets.
func serialCountry(t *testing.T, d *Directory, tq TraceQuery) int {
	t.Helper()
	f := tq.Query.FilterString()
	serial := strings.TrimSuffix(strings.TrimPrefix(f, "(serialnumber="), ")")
	for i := range d.Employees {
		if d.Employees[i].Serial == serial {
			return d.Employees[i].Country
		}
	}
	t.Fatalf("no employee with serial %q (filter %s)", serial, f)
	return -1
}

// TestPhaseShiftsGeography: before the phase boundary the trace targets the
// configured local geography; after it, the redirected one. PhaseIndex
// tracks the transition exactly at the threshold.
func TestPhaseShiftsGeography(t *testing.T) {
	d := smallDir(t, 600)
	g := NewGenerator(d, phasedConfig())

	count := func(n int) map[int]int {
		hits := make(map[int]int)
		for i := 0; i < n; i++ {
			hits[serialCountry(t, d, g.NextOfKind(KindSerial))]++
		}
		return hits
	}

	before := count(400)
	// The phase takes effect once AfterOps queries exist — i.e. on the 401st.
	if got := g.PhaseIndex(); got != 0 {
		t.Fatalf("PhaseIndex after exactly 400 ops = %d, want 0", got)
	}
	after := count(400)
	if got := g.PhaseIndex(); got != 1 {
		t.Fatalf("PhaseIndex after 800 ops = %d, want 1", got)
	}

	if b0 := before[0]; b0 < 300 {
		t.Errorf("pre-shift trace hit country 0 only %d/400 times", b0)
	}
	if a1 := after[1]; a1 < 300 {
		t.Errorf("post-shift trace hit country 1 only %d/400 times", a1)
	}
	if after[0] >= after[1] {
		t.Errorf("post-shift trace still favors country 0: %v", after)
	}
}

// TestPhaseReplacesMix: a phase carrying a Mix pointer re-weights the
// query-type distribution mid-trace.
func TestPhaseReplacesMix(t *testing.T) {
	d := smallDir(t, 600)
	cfg := phasedConfig()
	deptOnly := Mix{Dept: 1.0}
	cfg.Phases = []Phase{{AfterOps: 300, Mix: &deptOnly}}
	g := NewGenerator(d, cfg)

	var trace []TraceQuery
	for i := 0; i < 600; i++ {
		trace = append(trace, g.Next())
	}
	preDept := MixCounts(trace[:300])[KindDept]
	if preDept > 100 {
		t.Errorf("pre-phase dept share %d/300, want the Table-1 minority", preDept)
	}
	postDept := MixCounts(trace[300:])[KindDept]
	if postDept != 300 {
		t.Errorf("post-phase dept share %d/300, want all 300 (Mix replaced)", postDept)
	}
}

// TestPhasedTraceDeterministic: the phased trace — transitions, reshuffle
// and all — replays identically for the same seed, and differs for another.
func TestPhasedTraceDeterministic(t *testing.T) {
	d := smallDir(t, 600)
	keys := func(cfg TraceConfig) []string {
		g := NewGenerator(d, cfg)
		out := make([]string, 0, 800)
		for i := 0; i < 800; i++ {
			out = append(out, g.Next().Query.Key())
		}
		return out
	}

	a, b := keys(phasedConfig()), keys(phasedConfig())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("phased traces diverge at query %d: %s vs %s", i, a[i], b[i])
		}
	}

	other := phasedConfig()
	other.Seed = 22
	c := keys(other)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("differently-seeded phased traces are identical")
	}
}

// PhaseIndex reports how many phase transitions have been applied (0 = the
// base configuration is still in effect).
func (g *Generator) PhaseIndex() int { return g.nextPhase }
