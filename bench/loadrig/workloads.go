package main

import "fmt"

// workloadDef is one named workload: a topology, the rates of its traffic
// and the split of the measured window into phases. Every run goes through
// the same stages — set-up (repeated), warm-up, an open-loop write phase and
// a search phase — so every gated metric is defined by stage, not by
// workload, and is reported on all of them, as the benchmark contract
// requires.
type workloadDef struct {
	name string // its one-line "why" lives in BENCHMARK.json
	// employees sizes the synthetic master directory.
	employees int
	// mids lists one broad filter per cascade mid-tier (empty = leaves
	// attach to the master directly).
	mids []string
	// replicas are the leaf replicas; each filter of a replica is kept
	// fresh by its own persist-mode supervisor. Searches go to replica 0.
	replicas []replicaDef
	// writeRate is the open-loop commit rate (commits/s).
	writeRate float64
	// phases split --seconds; shares sum to 1.
	phases []phaseDef
	// reloadChunk > 0 serves leaf reloads in resumable chunks, gives every
	// leaf a durable StateDir and cuts each leaf's first connection at the
	// first chunk boundary so the ResumeReload path runs.
	reloadChunk int
	// setups is how often set-up is repeated in one run; setup_s and the
	// reload metrics are medians over the repeats.
	setups int
	// warmup is the untimed open-loop lead-in before the first phase.
	warmup float64
}

type replicaDef struct {
	filters  []string
	upstream int // -1 = master, else index into mids
}

type phaseKind uint8

const (
	phaseOpen        phaseKind = iota // one writer connection at writeRate, open loop
	phaseClosedWrite                  // closedWriters connections, closed loop
	phaseSearch                       // searchConns connections at replica 0, closed loop
)

// phaseDef is one timed phase. The load kinds never overlap: on the 2-core
// host even 10 searches/s beside the open-loop writer made the generator
// itself run 12.7 ms late at p95 (an Answer scan holds a core for
// milliseconds), and a late generator makes the latencies its own figure.
type phaseDef struct {
	name  string
	kind  phaseKind
	share float64 // of --seconds; shares sum to 1
}

// The fan-out pair also saturates one writer connection; the other two
// workloads spend that share on the phase they exist for.
var (
	fanoutPhases = []phaseDef{
		{name: "open", kind: phaseOpen, share: 0.4},
		{name: "closed-write", kind: phaseClosedWrite, share: 0.2},
		{name: "search", kind: phaseSearch, share: 0.4},
	}
	searchPhases = []phaseDef{
		{name: "open", kind: phaseOpen, share: 0.4},
		{name: "search", kind: phaseSearch, share: 0.6},
	}
	cascadePhases = []phaseDef{
		{name: "open", kind: phaseOpen, share: 0.6},
		{name: "search", kind: phaseSearch, share: 0.4},
	}
)

const (
	closedWriters = 1
	searchConns   = 2
	// closedCap bounds the commits pre-generated per second of a
	// closed-loop phase; comfortably above what one connection reaches.
	closedCap = 4000
)

// Frozen calibration, measured on the 2-core seed host (see README.md):
// the open-loop rates sit at roughly a quarter of the closed-loop
// saturation of the same topology.
const (
	fanoutEmployees  = 10000
	fanoutLeaves     = 32
	fanoutRate       = 400
	searchEmployees  = 10000
	searchWriteRate  = 400
	cascadeEmployees = 4000
	cascadeLeaves    = 16
	cascadeRate      = 40
	cascadeChunk     = 100
	searchDeadlineMs = 1000.0
	reachDeadlineMs  = 1000.0
	drainLimitMs     = 2000.0
)

// sizes lets the smoke tests run every workload at toy scale.
type sizes struct {
	fanoutEmployees, fanoutLeaves   int
	searchEmployees                 int
	cascadeEmployees, cascadeLeaves int
	cascadeChunk                    int
	// setups is the repeat count of the cheap set-ups; fanout-shared, whose
	// set-up moves 93 k entries, repeats sharedSetups times.
	setups, sharedSetups int
	warmup               float64
}

var fullSizes = sizes{
	fanoutEmployees: fanoutEmployees, fanoutLeaves: fanoutLeaves,
	searchEmployees:  searchEmployees,
	cascadeEmployees: cascadeEmployees, cascadeLeaves: cascadeLeaves,
	cascadeChunk: cascadeChunk,
	setups:       5,
	sharedSetups: 2,
	warmup:       0.5,
}

var workloadNames = []string{"fanout-shared", "fanout-distinct", "search-mix", "cascade-reload"}

// distinctFilters are 32 pairwise-distinct narrow specs. The first 20
// partition the people entries by serial prefix (country × block hundreds),
// so a people commit matches exactly one of them; the rest are department
// and serial∧department conjunctions that rarely match. A commit therefore
// reaches about one leaf while being classified against all 32.
func distinctFilters() []string {
	var out []string
	for c := 10; c <= 14; c++ {
		for h := 0; h <= 3; h++ {
			out = append(out, fmt.Sprintf("(serialnumber=%d%d*)", c, h))
		}
	}
	for d := 0; d < 8; d++ {
		out = append(out, fmt.Sprintf("(&(objectclass=department)(div=div%02d))", d))
	}
	for c := 10; c <= 13; c++ {
		out = append(out, fmt.Sprintf("(&(serialnumber=%d0*)(departmentnumber=1*))", c))
	}
	return out
}

func workloads(sz sizes) map[string]workloadDef {
	shared := workloadDef{
		name:      "fanout-shared",
		employees: sz.fanoutEmployees, writeRate: fanoutRate, phases: fanoutPhases, setups: sz.sharedSetups, warmup: sz.warmup,
	}
	for i := 0; i < sz.fanoutLeaves; i++ {
		f := "(serialnumber=10*)"
		if i >= sz.fanoutLeaves/2 {
			f = "(serialnumber=11*)"
		}
		shared.replicas = append(shared.replicas, replicaDef{filters: []string{f}, upstream: -1})
	}

	distinct := workloadDef{
		name:      "fanout-distinct",
		employees: sz.fanoutEmployees, writeRate: fanoutRate, phases: fanoutPhases, setups: sz.setups, warmup: sz.warmup,
	}
	for i, f := range distinctFilters() {
		if i >= sz.fanoutLeaves {
			break
		}
		distinct.replicas = append(distinct.replicas, replicaDef{filters: []string{f}, upstream: -1})
	}

	search := workloadDef{
		name:      "search-mix",
		employees: sz.searchEmployees, writeRate: searchWriteRate, phases: searchPhases, setups: sz.setups, warmup: sz.warmup,
		replicas: []replicaDef{{upstream: -1, filters: []string{
			"(serialnumber=10*)", "(mail=*@us.xyz.com)", "(dept=*)", "(location=*)",
		}}},
	}

	cascade := workloadDef{
		name:      "cascade-reload",
		employees: sz.cascadeEmployees, writeRate: cascadeRate, phases: cascadePhases, setups: sz.setups, warmup: sz.warmup,
		mids:        []string{"(serialnumber=10*)", "(serialnumber=11*)"},
		reloadChunk: sz.cascadeChunk,
	}
	for i := 0; i < sz.cascadeLeaves; i++ {
		mid, half := 0, sz.cascadeLeaves/2
		if i >= half {
			mid = 1
		}
		// 4 distinct contained specs per mid, shared by the mid's leaves.
		f := fmt.Sprintf("(serialnumber=1%d%d*)", mid, (i-mid*half)%4)
		cascade.replicas = append(cascade.replicas, replicaDef{filters: []string{f}, upstream: mid})
	}

	return map[string]workloadDef{
		shared.name: shared, distinct.name: distinct, search.name: search, cascade.name: cascade,
	}
}
