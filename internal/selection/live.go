package selection

import "filterdir/internal/query"

// Live control-plane extensions to the EvolutionSelector. The offline
// simulations feed it user queries through Observe; a cascade tier's
// control plane (internal/tierctl) instead feeds it admission rejections —
// the diverted leaf specs themselves — plus per-filter serving credit from
// the tier's downstream engine, and applies the resulting deltas to the
// tier's live filter set. The selector itself is not goroutine-safe; the
// control loop serializes access.

// SeedStored installs the queries as the current actual list without
// producing a delta — the tier's configured base specs are already
// replicated when the control plane starts.
func (s *EvolutionSelector) SeedStored(qs []query.Query) {
	for _, q := range qs {
		nq := q.Normalize()
		key := nq.Key()
		if _, ok := s.stored[key]; ok {
			continue
		}
		c := &Candidate{Query: nq, Stored: true}
		s.ensureSize(key, c)
		s.stored[key] = c
		delete(s.candidates, key)
	}
}

// Pin marks queries as non-evictable: neither evolution nor revolution will
// ever emit them in a Delta.Remove. A tier pins its operator-configured
// base specs so adaptation only ever adds to the configuration.
func (s *EvolutionSelector) Pin(qs []query.Query) {
	if s.pinned == nil {
		s.pinned = make(map[string]bool, len(qs))
	}
	for _, q := range qs {
		s.pinned[q.Normalize().Key()] = true
	}
}

// ObserveRejection records one admission rejection: the rejected spec
// itself becomes (or credits) a candidate, alongside its generalizations —
// a leaf the tier turned away is direct evidence of demand the stored set
// does not cover. Unlike Observe it never triggers evolution inline; the
// control loop decides when to Evolve, so a burst of rejections is
// aggregated before the tier acts.
func (s *EvolutionSelector) ObserveRejection(q query.Query) {
	s.decay()
	nq := q.Normalize()
	s.credit(nq)
	for _, cand := range s.gen.Generalize(nq) {
		s.credit(cand)
	}
}

// CreditStored adds live serving benefit to the stored filter covering q
// (exact key first, then Contains), reporting whether one was found. The
// control plane calls it with each downstream session's spec and content-
// group load so filters that are actively serving leaves keep their place
// against freshly-rejected candidates.
func (s *EvolutionSelector) CreditStored(q query.Query, n float64) bool {
	if n <= 0 {
		return false
	}
	nq := q.Normalize()
	k, st := s.covering(nq.Key(), nq)
	if st == nil {
		return false
	}
	s.benefit[k] += n
	return true
}

// Evolve runs the evolution/revolution checks once and returns the delta to
// apply to the live filter set (nil when the stored set should not change).
// The control loop calls it on its own cadence instead of per observation.
// Unlike the offline Observe path, Evolve also adopts a sufficiently-hot
// candidate into spare budget without evicting anything — a tier with
// headroom should widen on demand instead of waiting for a revolution.
func (s *EvolutionSelector) Evolve() *Delta {
	if d := s.maybeRevolution(); d != nil {
		return d
	}
	if d := s.maybeAdoptSpare(); d != nil {
		return d
	}
	return s.maybeEvolution()
}

// adoptThreshold is the minimum benefit a candidate needs for the live Evolve
// path to adopt it into spare budget without evicting anything: one undecayed
// rejection. The offline Observe path never adopts into spare budget, so the
// baseline is unaffected.
const adoptThreshold = 1.0

// maybeAdoptSpare adopts the densest candidate whose benefit has reached
// adoptThreshold and whose size fits the unused budget. Density ties break
// toward the candidate that covers the most other candidates (via
// Contains): when a rejected leaf spec and its generalization are equally
// hot, the tier widens to the generalization.
func (s *EvolutionSelector) maybeAdoptSpare() *Delta {
	spare := s.Budget - s.usedBudget()
	if spare <= 0 {
		return nil
	}
	var bestKey string
	best := -1.0
	bestCover := -1
	for k, c := range s.candidates {
		s.ensureSize(k, c)
		if c.Size <= 0 || c.Size > spare || s.benefit[k] < adoptThreshold {
			continue
		}
		d := s.density(k, c.Size)
		cover := s.coverage(c)
		switch {
		case bestKey == "", d > best,
			d == best && cover > bestCover,
			d == best && cover == bestCover && k < bestKey:
			best, bestKey, bestCover = d, k, cover
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

// coverage counts the other candidates that c provably contains.
func (s *EvolutionSelector) coverage(c *Candidate) int {
	if s.Contains == nil {
		return 0
	}
	n := 0
	for _, o := range s.candidates {
		if o != c && s.Contains(o.Query, c.Query) {
			n++
		}
	}
	return n
}

// Benefit reports the current (decayed) benefit of the filter with the
// given key — a status/metrics probe.
func (s *EvolutionSelector) Benefit(q query.Query) float64 {
	return s.benefit[q.Normalize().Key()]
}
