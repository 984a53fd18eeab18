package workload

import (
	"fmt"
	"math/rand"

	"filterdir/internal/query"
)

// QueryKind labels the four query prototypes of Table 1.
type QueryKind int

// Query prototypes of the enterprise workload.
const (
	KindSerial QueryKind = iota + 1
	KindMail
	KindDept
	KindLocation
)

func (k QueryKind) String() string {
	switch k {
	case KindSerial:
		return "(serialNumber=_)"
	case KindMail:
		return "(mail=_)"
	case KindDept:
		return "(&(dept=_)(div=_))"
	case KindLocation:
		return "(location=_)"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Mix is the query-type distribution of Table 1.
type Mix struct {
	Serial, Mail, Dept, Location float64
}

// Table1Mix is the measured two-day workload distribution.
var Table1Mix = Mix{Serial: 0.58, Mail: 0.24, Dept: 0.16, Location: 0.02}

// TraceConfig parameterizes the query trace.
type TraceConfig struct {
	Seed int64
	Mix  Mix
	// LocalFraction is the probability a people query targets the first
	// (local) geography; the case study serves a geography holding ≈30 % of
	// employees whose users mostly look up local colleagues.
	LocalFraction float64
	// BlockZipfS / BlockZipfV shape the Zipf skew across serial blocks
	// within a country (access to entries in a country is not uniform).
	BlockZipfS float64
	BlockZipfV float64
	// DeptZipfS shapes the skew across departments and divisions.
	DeptZipfS float64
	// TemporalRepeat is the probability a query repeats one of the last
	// RecentWindow queries verbatim (temporal locality for the user-query
	// cache of Figures 8 and 9).
	TemporalRepeat float64
	RecentWindow   int
	// UniformFraction is the probability a people query targets a uniformly
	// random employee anywhere — unorganized one-off accesses that no
	// generalized filter captures (they cap the generalized-only curves of
	// Figures 4 and 8, as in the real trace).
	UniformFraction float64
	// NullBaseFraction is the probability a people query uses the null base
	// (minimally directory-enabled applications, Section 3.1.1); the rest
	// scope the search to the target's country subtree.
	NullBaseFraction float64
	// LocalCountry is the country index "local" people lookups target
	// (default 0, the first configured country).
	LocalCountry int
	// Phases, when set, re-weight the trace mid-run — the traffic shifts
	// the adaptive tiering experiments drive. Entries must be ordered by
	// AfterOps.
	Phases []Phase
}

// Phase is one mid-trace regime change: it takes effect once the generator
// has produced AfterOps queries.
type Phase struct {
	// AfterOps is the query count at which this phase takes effect.
	AfterOps int
	// LocalCountry redirects local people lookups to this country index.
	LocalCountry int
	// LocalFraction, when > 0, replaces the geography-locality probability.
	LocalFraction float64
	// Mix, when non-nil, replaces the query-type mix.
	Mix *Mix
	// ReshuffleSeed, when non-zero, re-randomizes the block/department
	// popularity rankings at phase entry (access-pattern drift on top of
	// the geography shift).
	ReshuffleSeed int64
}

// DefaultTraceConfig mirrors the case-study access pattern.
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{
		Seed:           7,
		Mix:            Table1Mix,
		LocalFraction:  0.85,
		BlockZipfS:     1.4,
		BlockZipfV:     1.0,
		DeptZipfS:      1.5,
		TemporalRepeat: 0.2,
		RecentWindow:   50,
		// A quarter of people lookups are unorganized one-offs.
		UniformFraction: 0.25,
		// Half the applications know the regional subtree; the rest search
		// from the root.
		NullBaseFraction: 0.5,
	}
}

// TraceQuery is one generated request with its prototype label.
type TraceQuery struct {
	Kind  QueryKind
	Query query.Query
}

// Generator produces a deterministic query trace against a built directory.
type Generator struct {
	dir *Directory
	cfg TraceConfig
	r   *rand.Rand

	blockZipf map[int]*rand.Zipf // per country
	blockPerm map[int][]int      // popularity rank -> block id
	deptZipf  []*rand.Zipf       // per division
	deptPerm  [][]int
	divZipf   *rand.Zipf
	divPerm   []int

	recent []TraceQuery

	ops       int // queries produced, drives phase transitions
	nextPhase int
}

// NewGenerator builds a generator over the directory.
func NewGenerator(dir *Directory, cfg TraceConfig) *Generator {
	r := rand.New(rand.NewSource(cfg.Seed))
	g := &Generator{
		dir:       dir,
		cfg:       cfg,
		r:         r,
		blockZipf: make(map[int]*rand.Zipf),
		blockPerm: make(map[int][]int),
	}
	for ci := range dir.Config.Countries {
		blocks := len(dir.ByCountryBlock[ci])
		if blocks == 0 {
			continue
		}
		g.blockZipf[ci] = rand.NewZipf(r, cfg.BlockZipfS, cfg.BlockZipfV, uint64(blocks-1))
		g.blockPerm[ci] = r.Perm(blocks)
	}
	if n := len(dir.Divisions); n > 0 {
		g.divZipf = rand.NewZipf(r, cfg.DeptZipfS, 1.0, uint64(n-1))
		g.divPerm = r.Perm(n)
		g.deptZipf = make([]*rand.Zipf, n)
		g.deptPerm = make([][]int, n)
		for di := 0; di < n; di++ {
			m := len(dir.ByDivision[di])
			if m == 0 {
				continue
			}
			g.deptZipf[di] = rand.NewZipf(r, cfg.DeptZipfS, 1.0, uint64(m-1))
			g.deptPerm[di] = r.Perm(m)
		}
	}
	return g
}

// advancePhase applies any phase whose AfterOps threshold the trace has
// reached, then counts the query about to be produced.
func (g *Generator) advancePhase() {
	for g.nextPhase < len(g.cfg.Phases) && g.ops >= g.cfg.Phases[g.nextPhase].AfterOps {
		ph := g.cfg.Phases[g.nextPhase]
		g.nextPhase++
		g.cfg.LocalCountry = ph.LocalCountry
		if ph.LocalFraction > 0 {
			g.cfg.LocalFraction = ph.LocalFraction
		}
		if ph.Mix != nil {
			g.cfg.Mix = *ph.Mix
		}
		if ph.ReshuffleSeed != 0 {
			g.Reshuffle(ph.ReshuffleSeed)
		}
	}
	g.ops++
}

// Next produces the next trace query.
func (g *Generator) Next() TraceQuery {
	g.advancePhase()
	if len(g.recent) > 0 && g.r.Float64() < g.cfg.TemporalRepeat {
		tq := g.recent[g.r.Intn(len(g.recent))]
		g.remember(tq)
		return tq
	}
	var tq TraceQuery
	p := g.r.Float64()
	switch {
	case p < g.cfg.Mix.Serial:
		tq = g.serialQuery()
	case p < g.cfg.Mix.Serial+g.cfg.Mix.Mail:
		tq = g.mailQuery()
	case p < g.cfg.Mix.Serial+g.cfg.Mix.Mail+g.cfg.Mix.Dept:
		tq = g.deptQuery()
	default:
		tq = g.locationQuery()
	}
	g.remember(tq)
	return tq
}

// NextOfKind produces a query of one prototype, bypassing the mix (used by
// the single-query-type experiments).
func (g *Generator) NextOfKind(k QueryKind) TraceQuery {
	g.advancePhase()
	if len(g.recent) > 0 && g.r.Float64() < g.cfg.TemporalRepeat {
		// Repeat only matching-kind queries to keep the experiment pure.
		for attempt := 0; attempt < 4; attempt++ {
			tq := g.recent[g.r.Intn(len(g.recent))]
			if tq.Kind == k {
				g.remember(tq)
				return tq
			}
		}
	}
	var tq TraceQuery
	switch k {
	case KindSerial:
		tq = g.serialQuery()
	case KindMail:
		tq = g.mailQuery()
	case KindDept:
		tq = g.deptQuery()
	default:
		tq = g.locationQuery()
	}
	g.remember(tq)
	return tq
}

func (g *Generator) remember(tq TraceQuery) {
	if g.cfg.RecentWindow <= 0 {
		return
	}
	g.recent = append(g.recent, tq)
	if len(g.recent) > g.cfg.RecentWindow {
		g.recent = g.recent[1:]
	}
}

// pickEmployee selects an employee with geography and block skew; a
// UniformFraction of lookups target anyone, uniformly.
func (g *Generator) pickEmployee() *Employee {
	if g.r.Float64() < g.cfg.UniformFraction && len(g.dir.Employees) > 0 {
		emp := &g.dir.Employees[g.r.Intn(len(g.dir.Employees))]
		if _, ok := g.dir.Master.Get(emp.DN); ok {
			return emp
		}
	}
	ci := g.cfg.LocalCountry
	if ci < 0 || ci >= len(g.dir.Config.Countries) {
		ci = 0
	}
	if g.r.Float64() >= g.cfg.LocalFraction {
		// Remote lookup: uniform over the other countries.
		if n := len(g.dir.Config.Countries); n > 1 {
			o := g.r.Intn(n - 1)
			if o >= ci {
				o++
			}
			ci = o
		}
	}
	blocks := g.dir.ByCountryBlock[ci]
	if len(blocks) == 0 {
		return nil
	}
	rank := int(g.blockZipf[ci].Uint64())
	block := g.blockPerm[ci][rank]
	ids := blocks[block]
	if len(ids) == 0 {
		return nil
	}
	return &g.dir.Employees[ids[g.r.Intn(len(ids))]]
}

func (g *Generator) serialQuery() TraceQuery {
	emp := g.pickEmployee()
	if emp == nil {
		return g.locationQuery()
	}
	q := query.MustNew(g.peopleBase(emp), query.ScopeSubtree, fmt.Sprintf("(serialNumber=%s)", emp.Serial))
	return TraceQuery{Kind: KindSerial, Query: q}
}

func (g *Generator) mailQuery() TraceQuery {
	emp := g.pickEmployee()
	if emp == nil {
		return g.locationQuery()
	}
	q := query.MustNew(g.peopleBase(emp), query.ScopeSubtree, fmt.Sprintf("(mail=%s)", emp.Mail))
	return TraceQuery{Kind: KindMail, Query: q}
}

// peopleBase picks the search base for a people query: null for minimally
// directory-enabled applications, the target's country subtree otherwise.
func (g *Generator) peopleBase(emp *Employee) string {
	if g.r.Float64() < g.cfg.NullBaseFraction {
		return ""
	}
	return fmt.Sprintf("c=%s,%s", g.dir.Config.Countries[emp.Country].Code, Suffix)
}

func (g *Generator) deptQuery() TraceQuery {
	if g.divZipf == nil {
		return g.locationQuery()
	}
	di := g.divPerm[int(g.divZipf.Uint64())]
	ids := g.dir.ByDivision[di]
	if len(ids) == 0 || g.deptZipf[di] == nil {
		return g.locationQuery()
	}
	dept := g.dir.Departments[ids[g.deptPerm[di][int(g.deptZipf[di].Uint64())]]]
	base := ""
	if g.r.Float64() >= g.cfg.NullBaseFraction {
		base = fmt.Sprintf("ou=%s,ou=divisions,%s", dept.Division, Suffix)
	}
	q := query.MustNew(base, query.ScopeSubtree,
		fmt.Sprintf("(&(dept=%s)(div=%s))", dept.Dept, dept.Division))
	return TraceQuery{Kind: KindDept, Query: q}
}

func (g *Generator) locationQuery() TraceQuery {
	name := "site000"
	if len(g.dir.Locations) > 0 {
		name = g.dir.Locations[g.r.Intn(len(g.dir.Locations))]
	}
	q := query.MustNew("", query.ScopeSubtree, fmt.Sprintf("(location=%s)", name))
	return TraceQuery{Kind: KindLocation, Query: q}
}

// Reshuffle re-randomizes the popularity rankings (which blocks, divisions
// and departments are hot) from a new seed, deterministically. Experiments
// use it to model access-pattern drift, which is what dynamic filter
// selection (Section 6.2) adapts to.
func (g *Generator) Reshuffle(seed int64) {
	r := rand.New(rand.NewSource(seed))
	for ci := range g.dir.Config.Countries {
		if blocks := len(g.dir.ByCountryBlock[ci]); blocks > 0 {
			g.blockPerm[ci] = r.Perm(blocks)
		}
	}
	if n := len(g.dir.Divisions); n > 0 {
		g.divPerm = r.Perm(n)
		for di := 0; di < n; di++ {
			if m := len(g.dir.ByDivision[di]); m > 0 {
				g.deptPerm[di] = r.Perm(m)
			}
		}
	}
	g.recent = nil
}

// MixCounts tallies the prototype distribution of a trace (Table 1).
func MixCounts(trace []TraceQuery) map[QueryKind]int {
	out := make(map[QueryKind]int)
	for _, tq := range trace {
		out[tq.Kind]++
	}
	return out
}
