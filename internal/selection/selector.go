package selection

import (
	"sort"

	"filterdir/internal/query"
)

// Candidate is a filter being considered for replication, with its benefit
// statistics: hits since the last revolution and the estimated number of
// entries it matches.
type Candidate struct {
	Query query.Query
	Hits  uint64
	Size  int

	key string // Query.Key(), computed once
}

// Ratio is the benefit/size selection key.
func (c *Candidate) Ratio() float64 {
	if c.Size <= 0 {
		return float64(c.Hits)
	}
	return float64(c.Hits) / float64(c.Size)
}

// Delta is a revolution's outcome: the filters to start and stop
// replicating.
type Delta struct {
	Add    []query.Query
	Remove []query.Query
}

// Selector implements the periodic benefit/size selection of Section 6.2:
// hit statistics are maintained for candidate filters (generalizations of
// observed queries) and for the stored filters, and a revolution selects the
// filter set with the best benefit-to-size ratios under the replica's entry
// budget. Between revolutions the stored set never changes — every change
// costs a content transfer, which is why the paper prefers this to the
// continual evolution of Kapitskaia, Ng and Srivastava (EDBT 2000).
//
// It has two callers. A replica feeds it the user queries it answers and
// lets Observe run a revolution every Interval of them; a cascade tier's
// control plane (internal/tierctl) feeds it admission rejections as
// observations and serving activity as Credit, and calls ForceRevolution on
// its own clock. The selector is not goroutine-safe.
type Selector struct {
	// SizeOf estimates the number of entries matching a candidate query
	// (typically a master-side count). Results are cached.
	SizeOf func(query.Query) int
	// Budget is the replica entry budget.
	Budget int
	// Contains, when non-nil, proves semantic containment (inner ⊆ outer).
	// An observation then credits a stored filter that covers a candidate
	// instead of growing a duplicate candidate for content already
	// replicated, and a revolution never selects a filter beside one that
	// covers it — without it only exact key matches count. The tier control
	// plane sets it to the containment checker's QueryContains.
	Contains func(inner, outer query.Query) bool
	// Interval is the revolution interval R in observations (0: only
	// ForceRevolution reorganizes).
	Interval int

	gen        *Generalizer
	stored     map[string]*Candidate
	candidates map[string]*Candidate
	pinned     map[string]bool
	sizeCache  map[string]int
	counter    int
}

// NewSelector builds a selector.
func NewSelector(gen *Generalizer, sizeOf func(query.Query) int, budget, interval int) *Selector {
	return &Selector{
		SizeOf:     sizeOf,
		Budget:     budget,
		Interval:   interval,
		gen:        gen,
		stored:     make(map[string]*Candidate),
		candidates: make(map[string]*Candidate),
		pinned:     make(map[string]bool),
		sizeCache:  make(map[string]int),
	}
}

// Seed installs already-replicated filters as the stored set without
// producing a delta; it is for a selector that has observed nothing yet.
func (s *Selector) Seed(qs []query.Query) {
	for _, q := range qs {
		nq := q.Normalize()
		key := nq.Key()
		if _, ok := s.stored[key]; !ok {
			s.stored[key] = &Candidate{Query: nq, key: key}
		}
	}
}

// Unseed takes q back out of the stored set without producing a delta: the
// caller could not start replicating a filter a revolution selected. The
// budget is no longer charged for it, and observations of it grow a candidate
// again, which a later revolution may select.
func (s *Selector) Unseed(q query.Query) {
	delete(s.stored, q.Normalize().Key())
}

// Pin exempts stored filters from eviction: a revolution charges them to the
// budget first and never emits them in a Delta.Remove. A tier pins its
// operator-configured base specs so adaptation only ever adds to the
// configuration.
func (s *Selector) Pin(qs []query.Query) {
	for _, q := range qs {
		s.pinned[q.Key()] = true
	}
}

// covering returns the stored filter an observation of q (whose key is key)
// counts for: the stored filter with that key, else one proven via Contains
// to cover q, else nil.
func (s *Selector) covering(key string, q query.Query) *Candidate {
	if st, ok := s.stored[key]; ok {
		return st
	}
	if s.Contains != nil {
		for _, st := range s.stored {
			if s.Contains(q, st.Query) {
				return st
			}
		}
	}
	return nil
}

// Observe records one query: every candidate filter that would have
// answered it gains a hit — or, when something replicated already covers
// the candidate, that stored filter does. It returns a non-nil Delta when
// the revolution interval elapses.
func (s *Selector) Observe(q query.Query) *Delta {
	for _, cand := range s.gen.Generalize(q) {
		key := cand.Key()
		c := s.covering(key, cand)
		if c == nil {
			if c = s.candidates[key]; c == nil {
				c = &Candidate{Query: cand, key: key}
				s.candidates[key] = c
			}
		}
		c.Hits++
	}
	s.counter++
	if s.Interval > 0 && s.counter >= s.Interval {
		return s.ForceRevolution()
	}
	return nil
}

// Credit adds n hits to the stored filter that equals or, via Contains,
// covers q, reporting whether there is one. The tier control plane calls it
// with each downstream session's spec and each content group's update load,
// so filters that are serving leaves hold their place against freshly
// rejected candidates.
func (s *Selector) Credit(q query.Query, n uint64) bool {
	nq := q.Normalize()
	c := s.covering(nq.Key(), nq)
	if c != nil {
		c.Hits += n
	}
	return c != nil
}

// ensureSize fills in c's size estimate, asking SizeOf at most once per key.
func (s *Selector) ensureSize(c *Candidate) {
	if c.Size > 0 {
		return
	}
	sz, ok := s.sizeCache[c.key]
	if !ok {
		if s.SizeOf != nil {
			sz = s.SizeOf(c.Query)
		}
		s.sizeCache[c.key] = sz
	}
	c.Size = sz
}

// ForceRevolution runs a revolution now (the initial stored set after a
// warm-up pass; the tier control plane's periodic reorganization): pinned
// filters are kept, then stored and candidate filters together fill the rest
// of the budget greedily by benefit/size ratio, per Section 6.2. Hit
// statistics start over for the next period.
func (s *Selector) ForceRevolution() *Delta {
	s.counter = 0
	chosen := make(map[string]*Candidate)
	used := 0
	all := make([]*Candidate, 0, len(s.candidates)+len(s.stored))
	for _, c := range s.stored {
		s.ensureSize(c)
		if s.pinned[c.key] {
			chosen[c.key] = c
			used += c.Size
		} else {
			all = append(all, c)
		}
	}
	for _, c := range s.candidates {
		s.ensureSize(c)
		all = append(all, c)
	}
	sort.Slice(all, func(i, j int) bool {
		if ri, rj := all[i].Ratio(), all[j].Ratio(); ri != rj {
			return ri > rj
		}
		// Tie-break deterministically: smaller first, then key order.
		if all[i].Size != all[j].Size {
			return all[i].Size < all[j].Size
		}
		return all[i].key < all[j].key
	})
	for _, c := range all {
		if c.Size > 0 && used+c.Size <= s.Budget && !s.covered(c, chosen) {
			chosen[c.key] = c
			used += c.Size
		}
	}

	delta := &Delta{}
	for key, c := range s.stored {
		if _, keep := chosen[key]; !keep {
			delta.Remove = append(delta.Remove, c.Query)
		}
	}
	for key, c := range chosen {
		if _, have := s.stored[key]; !have {
			delta.Add = append(delta.Add, c.Query)
		}
		c.Hits = 0
	}
	sortQueries(delta.Add)
	sortQueries(delta.Remove)
	s.stored = chosen
	s.candidates = make(map[string]*Candidate)
	return delta
}

// covered reports whether Contains proves a chosen filter already holds
// everything c would replicate.
func (s *Selector) covered(c *Candidate, chosen map[string]*Candidate) bool {
	if s.Contains != nil {
		for _, o := range chosen {
			if s.Contains(c.Query, o.Query) {
				return true
			}
		}
	}
	return false
}

func sortQueries(qs []query.Query) {
	sort.Slice(qs, func(i, j int) bool { return qs[i].Key() < qs[j].Key() })
}

// TopCandidatesLimit returns the n candidates with the most hits since the
// last revolution (ties broken by benefit/size ratio, then key), without
// mutating the selector — the Figure 8/9 sweeps store exactly n filters.
// Candidates matching more than maxSize entries are excluded (0 means no
// cap): user queries generalize at several granularities, and a replica of
// bounded size only ever stores the finer ones.
func (s *Selector) TopCandidatesLimit(n, maxSize int) []query.Query {
	all := make([]*Candidate, 0, len(s.candidates))
	for _, c := range s.candidates {
		s.ensureSize(c)
		if maxSize <= 0 || c.Size <= maxSize {
			all = append(all, c)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Hits != all[j].Hits {
			return all[i].Hits > all[j].Hits
		}
		if ri, rj := all[i].Ratio(), all[j].Ratio(); ri != rj {
			return ri > rj
		}
		return all[i].key < all[j].key
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]query.Query, 0, n)
	for _, c := range all[:n] {
		out = append(out, c.Query)
	}
	return out
}
