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
	// Stored marks candidates currently replicated.
	Stored bool
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
// observed user queries), and every Interval queries a revolution selects
// the filter set with the best benefit-to-size ratios under the replica's
// entry budget.
type Selector struct {
	pool
	gen *Generalizer
	// Interval is the revolution interval R in queries.
	Interval int

	counter int
}

// NewSelector builds a selector.
func NewSelector(gen *Generalizer, sizeOf func(query.Query) int, budget, interval int) *Selector {
	return &Selector{pool: newPool(sizeOf, budget), gen: gen, Interval: interval}
}

// Observe records one user query: every candidate filter that would have
// answered it gains a hit, as does the stored filter that actually answered
// it. It returns a non-nil Delta when the revolution interval elapses.
func (s *Selector) Observe(q query.Query) *Delta {
	for _, cand := range s.gen.Generalize(q) {
		_, c := s.credited(cand)
		c.Hits++
	}
	s.counter++
	if s.Interval > 0 && s.counter >= s.Interval {
		s.counter = 0
		return s.revolution()
	}
	return nil
}

// ForceRevolution runs a revolution immediately (used to seed the initial
// stored set after a warm-up pass).
func (s *Selector) ForceRevolution() *Delta {
	s.counter = 0
	return s.revolution()
}

// revolution combines stored and candidate lists and greedily selects by
// benefit/size ratio under the budget, per Section 6.2.
func (s *Selector) revolution() *Delta {
	all := make([]ranked, 0, len(s.candidates)+len(s.stored))
	for k, c := range s.stored {
		s.ensureSize(k, c)
		all = append(all, ranked{k, c, c.Ratio()})
	}
	for k, c := range s.candidates {
		if c.Hits == 0 {
			continue
		}
		s.ensureSize(k, c)
		all = append(all, ranked{k, c, c.Ratio()})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		// Tie-break deterministically: smaller first, then key order.
		if all[i].c.Size != all[j].c.Size {
			return all[i].c.Size < all[j].c.Size
		}
		return all[i].key < all[j].key
	})
	chosen := make(map[string]*Candidate)
	s.fill(chosen, 0, all)
	delta := s.deltaTo(chosen)

	// Install the new stored set; hit counters reset for the next interval.
	s.stored = make(map[string]*Candidate, len(chosen))
	for key, c := range chosen {
		s.stored[key] = &Candidate{Query: c.Query, Size: c.Size, Stored: true}
	}
	s.candidates = make(map[string]*Candidate)
	return delta
}

// TopCandidates returns the n candidates with the most hits since the last
// revolution (ties broken by benefit/size ratio, then key), without
// mutating the selector — the Figure 8/9 sweeps store exactly n filters.
func (s *Selector) TopCandidates(n int) []query.Query {
	return s.TopCandidatesLimit(n, 0)
}

// TopCandidatesLimit is TopCandidates with a per-filter size cap: candidates
// matching more than maxSize entries are excluded (0 means no cap). User
// queries generalize at several granularities; a replica of bounded size
// only ever stores the finer ones.
func (s *Selector) TopCandidatesLimit(n, maxSize int) []query.Query {
	all := make([]*Candidate, 0, len(s.candidates))
	for k, c := range s.candidates {
		if c.Hits == 0 {
			continue
		}
		s.ensureSize(k, c)
		if maxSize > 0 && c.Size > maxSize {
			continue
		}
		all = append(all, c)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Hits != all[j].Hits {
			return all[i].Hits > all[j].Hits
		}
		ri, rj := all[i].Ratio(), all[j].Ratio()
		if ri != rj {
			return ri > rj
		}
		return all[i].Query.Key() < all[j].Query.Key()
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
