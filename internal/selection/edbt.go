package selection

import (
	"sort"

	"filterdir/internal/query"
)

// EvolutionSelector is a simplified implementation of the evolution /
// revolution algorithm of Kapitskaia, Ng and Srivastava (EDBT 2000), kept
// as a baseline for the ablation benchmarks. It maintains benefit values
// (exponentially decayed hit counts) for the stored ("actual") list and a
// candidate list:
//
//   - evolution: on every query, if some candidate's benefit density
//     exceeds the worst stored filter's by the swap margin, they exchange
//     places immediately — causing the frequent stored-set churn the paper
//     deems unsuitable for replication;
//   - revolution: when the candidates' aggregate benefit exceeds the
//     actuals' by the revolution margin, both lists are combined and the
//     best filters re-selected under the budget.
type EvolutionSelector struct {
	pool // stored is the algorithm's "actual" list
	gen  *Generalizer
	// Decay multiplies all benefits each query (temporal weighting).
	Decay float64
	// SwapMargin is the density advantage a candidate needs to evolve in.
	SwapMargin float64
	// RevolutionMargin triggers a full re-selection when the candidate
	// aggregate benefit exceeds the actuals' by this factor.
	RevolutionMargin float64

	benefit map[string]float64
	// pinned keys are exempt from eviction: a tier's operator-configured
	// base specs stay replicated no matter how their benefit decays.
	pinned map[string]bool

	// Evolutions and Revolutions count stored-set reorganizations — the
	// churn statistic the ablation reports.
	Evolutions  int
	Revolutions int
}

// NewEvolutionSelector builds the baseline with the parameters used in the
// benchmarks.
func NewEvolutionSelector(gen *Generalizer, sizeOf func(query.Query) int, budget int) *EvolutionSelector {
	return &EvolutionSelector{
		pool:             newPool(sizeOf, budget),
		gen:              gen,
		Decay:            0.95,
		SwapMargin:       1.2,
		RevolutionMargin: 1.5,
		benefit:          make(map[string]float64),
	}
}

// Observe records a user query and returns a non-nil Delta whenever the
// stored set changed (evolution or revolution).
func (s *EvolutionSelector) Observe(q query.Query) *Delta {
	s.decay()
	for _, cand := range s.gen.Generalize(q) {
		s.credit(cand)
	}

	if d := s.maybeRevolution(); d != nil {
		return d
	}
	return s.maybeEvolution()
}

// decay ages every benefit by one observation.
func (s *EvolutionSelector) decay() {
	for k := range s.benefit {
		s.benefit[k] *= s.Decay
	}
}

// credit records one benefit unit for the filter an observation of cand
// counts for; a candidate is sized as soon as it is first seen.
func (s *EvolutionSelector) credit(cand query.Query) {
	k, c := s.credited(cand)
	s.ensureSize(k, c)
	s.benefit[k]++
}

func (s *EvolutionSelector) density(key string, size int) float64 {
	if size <= 0 {
		return s.benefit[key]
	}
	return s.benefit[key] / float64(size)
}

func (s *EvolutionSelector) maybeEvolution() *Delta {
	if len(s.stored) == 0 {
		return s.maybeAdoptFirst()
	}
	// Worst stored filter by density (pinned filters are not evictable).
	var worstKey string
	worst := -1.0
	for k, c := range s.stored {
		if s.pinned[k] {
			continue
		}
		d := s.density(k, c.Size)
		if worst < 0 || d < worst {
			worst, worstKey = d, k
		}
	}
	if worstKey == "" {
		return nil
	}
	// Best candidate by density that fits after removing the worst.
	var bestKey string
	best := -1.0
	usedWithoutWorst := s.usedBudget() - s.stored[worstKey].Size
	for k, c := range s.candidates {
		if c.Size <= 0 || usedWithoutWorst+c.Size > s.Budget {
			continue
		}
		if d := s.density(k, c.Size); d > best {
			best, bestKey = d, k
		}
	}
	if bestKey == "" || best < worst*s.SwapMargin {
		return nil
	}
	s.Evolutions++
	out := &Delta{
		Add:    []query.Query{s.candidates[bestKey].Query},
		Remove: []query.Query{s.stored[worstKey].Query},
	}
	s.candidates[worstKey] = s.stored[worstKey]
	s.stored[bestKey] = s.candidates[bestKey]
	s.stored[bestKey].Stored = true
	delete(s.stored, worstKey)
	delete(s.candidates, bestKey)
	return out
}

// maybeAdoptFirst seeds the stored set greedily when it is empty.
func (s *EvolutionSelector) maybeAdoptFirst() *Delta {
	var bestKey string
	best := -1.0
	for k, c := range s.candidates {
		if c.Size <= 0 || c.Size > s.Budget {
			continue
		}
		if d := s.density(k, c.Size); d > best {
			best, bestKey = d, k
		}
	}
	if bestKey == "" {
		return nil
	}
	s.Evolutions++
	c := s.candidates[bestKey]
	c.Stored = true
	s.stored[bestKey] = c
	delete(s.candidates, bestKey)
	return &Delta{Add: []query.Query{c.Query}}
}

func (s *EvolutionSelector) maybeRevolution() *Delta {
	var actualBenefit, candBenefit float64
	for k := range s.stored {
		actualBenefit += s.benefit[k]
	}
	for k := range s.candidates {
		candBenefit += s.benefit[k]
	}
	if len(s.stored) == 0 || candBenefit <= actualBenefit*s.RevolutionMargin {
		return nil
	}
	s.Revolutions++

	all := make([]ranked, 0, len(s.stored)+len(s.candidates))
	for k, c := range s.stored {
		all = append(all, ranked{k, c, s.density(k, c.Size)})
	}
	for k, c := range s.candidates {
		s.ensureSize(k, c)
		all = append(all, ranked{k, c, s.density(k, c.Size)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].key < all[j].key
	})
	chosen := make(map[string]*Candidate)
	used := 0
	// Pinned filters are selected unconditionally, charged against the
	// budget first; the greedy pass fills the remainder.
	for k, c := range s.stored {
		if s.pinned[k] {
			chosen[k] = c
			used += c.Size
		}
	}
	s.fill(chosen, used, all)
	delta := s.deltaTo(chosen)
	for k, c := range s.stored {
		if _, keep := chosen[k]; !keep {
			c.Stored = false
			s.candidates[k] = c
		}
	}
	for k, c := range chosen {
		delete(s.candidates, k)
		c.Stored = true
	}
	s.stored = chosen
	if len(delta.Add) == 0 && len(delta.Remove) == 0 {
		return nil
	}
	return delta
}

func (s *EvolutionSelector) usedBudget() int {
	n := 0
	for _, c := range s.stored {
		n += c.Size
	}
	return n
}
