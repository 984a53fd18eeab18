package selection

import (
	"sort"

	"filterdir/internal/query"
)

// pool is the candidate bookkeeping the two selection algorithms share: the
// stored set and the candidate list (both keyed by query key), size
// estimates cached per key, the rule for which filter an observation
// credits, and the greedy fill of the entry budget. What a credit is worth
// (a hit count, a decayed benefit) and when the stored set is reorganized
// stay each algorithm's own.
type pool struct {
	// SizeOf estimates the number of entries matching a candidate query
	// (typically a master-side count). Results are cached.
	SizeOf func(query.Query) int
	// Budget is the replica entry budget.
	Budget int
	// Contains, when non-nil, proves semantic containment (inner ⊆ outer).
	// An observation then credits a stored filter that covers a candidate
	// instead of growing a duplicate candidate for content already
	// replicated — without it only exact key matches credit the stored set.
	// The live tier control plane (internal/tierctl) sets it to the
	// containment checker's QueryContains.
	Contains func(inner, outer query.Query) bool

	stored     map[string]*Candidate
	candidates map[string]*Candidate
	sizeCache  map[string]int
}

func newPool(sizeOf func(query.Query) int, budget int) pool {
	return pool{
		SizeOf:     sizeOf,
		Budget:     budget,
		stored:     make(map[string]*Candidate),
		candidates: make(map[string]*Candidate),
		sizeCache:  make(map[string]int),
	}
}

// covering returns the stored filter an observation of q counts for: the
// exact stored filter (key is q's), else one proven via Contains to cover it.
func (p *pool) covering(key string, q query.Query) (string, *Candidate) {
	if st, ok := p.stored[key]; ok {
		return key, st
	}
	if p.Contains != nil {
		for k, st := range p.stored {
			if p.Contains(q, st.Query) {
				return k, st
			}
		}
	}
	return "", nil
}

// credited returns the filter that one observation of cand counts for, with
// its key: the stored filter covering it or — when nothing replicated covers
// it — its entry in the candidate list, created on first sight.
func (p *pool) credited(cand query.Query) (string, *Candidate) {
	key := cand.Key()
	if k, st := p.covering(key, cand); st != nil {
		return k, st
	}
	c, ok := p.candidates[key]
	if !ok {
		c = &Candidate{Query: cand}
		p.candidates[key] = c
	}
	return key, c
}

// ensureSize fills in c's size estimate (key is c.Query's), asking SizeOf at
// most once per key.
func (p *pool) ensureSize(key string, c *Candidate) {
	if c.Size > 0 {
		return
	}
	sz, ok := p.sizeCache[key]
	if !ok {
		if p.SizeOf != nil {
			sz = p.SizeOf(c.Query)
		}
		p.sizeCache[key] = sz
	}
	c.Size = sz
}

// ranked is a filter with the score its algorithm orders it by.
type ranked struct {
	key   string
	c     *Candidate
	score float64
}

// fill adds to chosen, in rank order, every filter that still fits the
// budget; used is the size of what chosen already holds.
func (p *pool) fill(chosen map[string]*Candidate, used int, order []ranked) {
	for _, r := range order {
		if _, have := chosen[r.key]; have || r.c.Size <= 0 || used+r.c.Size > p.Budget {
			continue
		}
		chosen[r.key] = r.c
		used += r.c.Size
	}
}

// deltaTo is what replacing the stored set by chosen starts and stops
// replicating.
func (p *pool) deltaTo(chosen map[string]*Candidate) *Delta {
	delta := &Delta{}
	for key, c := range p.stored {
		if _, keep := chosen[key]; !keep {
			delta.Remove = append(delta.Remove, c.Query)
		}
	}
	for key, c := range chosen {
		if _, have := p.stored[key]; !have {
			delta.Add = append(delta.Add, c.Query)
		}
	}
	sortQueries(delta.Add)
	sortQueries(delta.Remove)
	return delta
}

// StoredSet returns the currently selected queries.
func (p *pool) StoredSet() []query.Query {
	out := make([]query.Query, 0, len(p.stored))
	for _, c := range p.stored {
		out = append(out, c.Query)
	}
	sortQueries(out)
	return out
}

func sortQueries(qs []query.Query) {
	sort.Slice(qs, func(i, j int) bool { return qs[i].Key() < qs[j].Key() })
}
