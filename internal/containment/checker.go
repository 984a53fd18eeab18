package containment

import (
	"sync"

	"filterdir/internal/filter"
	"filterdir/internal/query"
)

// Stats counts how containment decisions were reached; the template
// machinery exists to drive traffic away from the generic path.
type Stats struct {
	// SameTemplate counts Proposition 3 fast-path decisions.
	SameTemplate uint64
	// Compiled counts evaluations of a pre-compiled template-pair condition.
	Compiled uint64
	// ImpossiblePruned counts queries rejected by a template pair known to
	// admit no containment regardless of assertion values.
	ImpossiblePruned uint64
	// AlwaysAccepted counts queries accepted by a template pair whose
	// containment holds for all assertion values.
	AlwaysAccepted uint64
	// Fallback counts full Proposition 1 checks for pairs too complex to
	// compile.
	Fallback uint64
	// PlansCompiled counts distinct template pairs analyzed.
	PlansCompiled uint64
}

type planKind int

const (
	planCompiled planKind = iota + 1
	planAlways
	planImpossible
	planFallback
)

type plan struct {
	kind planKind
	cond *condition
}

// Checker decides query and filter containment with the paper's template
// optimizations: Proposition 3 for same-template pairs and per-template-pair
// compiled conditions (Proposition 2) with a-priori pruning of impossible
// pairs for cross-template checks. A Checker is safe for concurrent use.
//
// The zero value is not usable; call NewChecker.
type Checker struct {
	mu    sync.Mutex
	plans map[string]*plan
	stats Stats
}

// NewChecker creates a Checker with an empty plan cache.
func NewChecker() *Checker {
	return &Checker{plans: make(map[string]*plan)}
}

// Stats returns a snapshot of the decision counters.
func (c *Checker) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// FilterContains decides f1 ⊆ f2 using the fastest applicable method.
func (c *Checker) FilterContains(f1, f2 *filter.Node) bool {
	f1, f2 = orDefault(f1), orDefault(f2)
	t1, t2 := f1.Template(), f2.Template()
	if t1 == t2 && f1.IsPositive() && f2.IsPositive() {
		c.bump(func(s *Stats) { s.SameTemplate++ })
		return SameTemplateContains(f1, f2)
	}
	p := c.planFor(t1, t2, f1, f2)
	switch p.kind {
	case planImpossible:
		c.bump(func(s *Stats) { s.ImpossiblePruned++ })
		return false
	case planAlways:
		c.bump(func(s *Stats) { s.AlwaysAccepted++ })
		return true
	case planCompiled:
		c.bump(func(s *Stats) { s.Compiled++ })
		return p.cond.eval(env{a: f1.SlotValues(), b: f2.SlotValues()})
	default:
		c.bump(func(s *Stats) { s.Fallback++ })
		ok, err := FilterContainsGeneric(f1, f2)
		return err == nil && ok
	}
}

// QueryContains implements the paper's QC algorithm: the base/scope region
// of q must lie inside that of qs, q's attributes must be a subset of qs's,
// and q's filter must be contained in qs's filter. qs must also keep every
// attribute q's filter names.
func (c *Checker) QueryContains(q, qs query.Query) bool {
	if !ScopeContains(q, qs) {
		return false
	}
	if !q.AttrsSubsetOf(qs) {
		return false
	}
	// A replica evaluates q's filter on the images qs selected, so an
	// attribute they lack reads as absent there while the master's entries
	// carry it: a filter contained in qs's could still match fewer entries at
	// the replica than at the master.
	if !qs.WantsAllAttrs() {
		for _, p := range q.Filter.Predicates() {
			if !qs.Keeps(p.Attr) {
				return false
			}
		}
	}
	return c.FilterContains(q.Filter, qs.Filter)
}

func (c *Checker) bump(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// planFor returns the cached template-pair plan, compiling it on first use.
// Compilation replaces assertion values with slot markers, computes
// DNF(F1 ∧ ¬F2) — whose structure depends only on the templates — and
// derives the CNF containment condition over slot comparisons.
func (c *Checker) planFor(t1, t2 string, f1, f2 *filter.Node) *plan {
	key := t1 + "\x00" + t2
	c.mu.Lock()
	if p, ok := c.plans[key]; ok {
		c.mu.Unlock()
		return p
	}
	c.mu.Unlock()

	p := compilePair(f1, f2)

	c.mu.Lock()
	// Another goroutine may have compiled the same pair; either result is
	// identical, keep the first.
	if prior, ok := c.plans[key]; ok {
		p = prior
	} else {
		c.plans[key] = p
		c.stats.PlansCompiled++
	}
	c.mu.Unlock()
	return p
}

func compilePair(f1, f2 *filter.Node) *plan {
	m1 := withMarkers(f1, markerA)
	m2 := withMarkers(f2, markerB)
	expr := filter.NewAnd(m1, filter.NewNot(m2))
	conj, err := expr.DNF()
	if err != nil {
		return &plan{kind: planFallback}
	}
	cond, v := derive(conj)
	switch v {
	case verdictAlways:
		return &plan{kind: planAlways}
	case verdictImpossible:
		return &plan{kind: planImpossible}
	default:
		return &plan{kind: planCompiled, cond: cond}
	}
}
