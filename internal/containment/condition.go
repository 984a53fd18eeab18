package containment

import (
	"filterdir/internal/entry"
	"filterdir/internal/filter"
)

// condition is the containment condition for a filter pair in conjunctive
// normal form: F1 is contained in F2 iff every clause has at least one true
// atom. Each clause corresponds to one conjunct of DNF(F1 ∧ ¬F2) and asserts
// that conjunct's inconsistency.
type condition struct {
	clauses [][]atom
}

func (c *condition) eval(e env) bool {
	for _, clause := range c.clauses {
		ok := false
		for _, a := range clause {
			if a.eval(e) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// atomCount reports the total number of atoms (used by stats and tests).
func (c *condition) atomCount() int {
	n := 0
	for _, cl := range c.clauses {
		n += len(cl)
	}
	return n
}

type verdict int

const (
	// verdictCompiled: containment holds iff the condition evaluates true.
	verdictCompiled verdict = iota + 1
	// verdictAlways: every conjunct is unconditionally inconsistent;
	// containment holds for any assertion values.
	verdictAlways
	// verdictImpossible: some conjunct is satisfiable regardless of assertion
	// values; containment can never hold for this structure.
	verdictImpossible
)

// derive builds the containment condition from the DNF of F1 ∧ ¬F2.
func derive(conjuncts [][]filter.Literal) (*condition, verdict) {
	cond := &condition{}
	for _, conj := range conjuncts {
		atoms, always := conjunctAtoms(conj)
		if always {
			continue // this conjunct can never be satisfied
		}
		if len(atoms) == 0 {
			// No value assignment can make this conjunct inconsistent.
			return nil, verdictImpossible
		}
		cond.clauses = append(cond.clauses, atoms)
	}
	if len(cond.clauses) == 0 {
		return nil, verdictAlways
	}
	return cond, verdictCompiled
}

// attrLits collects the literals of one conjunct that constrain a single
// attribute, sorted by polarity and kind.
type attrLits struct {
	posEQ, negEQ []valRef
	posGE, negGE []valRef
	posLE, negLE []valRef
	posSub       []symPattern
	negSub       []symPattern
	posPresent   bool
	negPresent   bool
}

func (al *attrLits) hasPositive() bool {
	return len(al.posEQ) > 0 || len(al.posGE) > 0 || len(al.posLE) > 0 ||
		len(al.posSub) > 0 || al.posPresent
}

// conjunctAtoms derives the inconsistency atoms for one conjunct: the
// conjunct is inconsistent iff at least one atom holds. always=true means
// the conjunct is inconsistent regardless of assertion values. An empty atom
// list with always=false means the conjunct is satisfiable for every value
// assignment.
func conjunctAtoms(conj []filter.Literal) (atoms []atom, always bool) {
	byAttr := make(map[string]*attrLits)
	order := make([]string, 0, 4)
	get := func(attr string) *attrLits {
		al, ok := byAttr[attr]
		if !ok {
			al = &attrLits{}
			byAttr[attr] = al
			order = append(order, attr)
		}
		return al
	}
	for _, lit := range conj {
		p := lit.Pred
		al := get(p.Attr)
		switch p.Op {
		case filter.EQ:
			if lit.Negated {
				al.negEQ = append(al.negEQ, refOf(p.Value))
			} else {
				al.posEQ = append(al.posEQ, refOf(p.Value))
			}
		case filter.GE:
			if lit.Negated {
				al.negGE = append(al.negGE, refOf(p.Value))
			} else {
				al.posGE = append(al.posGE, refOf(p.Value))
			}
		case filter.LE:
			if lit.Negated {
				al.negLE = append(al.negLE, refOf(p.Value))
			} else {
				al.posLE = append(al.posLE, refOf(p.Value))
			}
		case filter.Present:
			if lit.Negated {
				al.negPresent = true
			} else {
				al.posPresent = true
			}
		case filter.Substr:
			pat := toSymPattern(p.Sub)
			if lit.Negated {
				al.negSub = append(al.negSub, pat)
			} else {
				al.posSub = append(al.posSub, pat)
			}
		}
	}
	for _, attr := range order {
		al := byAttr[attr]
		a, alw := attrAtoms(attr, al)
		if alw {
			return nil, true
		}
		atoms = append(atoms, a...)
	}
	return atoms, false
}

func toSymPattern(s *filter.Substring) symPattern {
	var p symPattern
	if s == nil {
		return p
	}
	if s.Initial != "" {
		p.initial = refOf(s.Initial)
		p.hasInit = true
	}
	for _, a := range s.Any {
		p.any = append(p.any, refOf(a))
	}
	if s.Final != "" {
		p.final = refOf(s.Final)
		p.hasFin = true
	}
	return p
}

// attrAtoms derives inconsistency atoms for the literals constraining a
// single attribute. An entry may omit the attribute, which satisfies every
// negated literal and no positive one. Otherwise each positive literal needs
// a value of its own that satisfies it and no negated literal, so the
// literals are inconsistent exactly when one positive literal is, together
// with the negated ones.
func attrAtoms(attr string, al *attrLits) (atoms []atom, always bool) {
	if !al.hasPositive() {
		return nil, false
	}
	if al.negPresent {
		// A positive literal requires the attribute; ¬present forbids it.
		return nil, true
	}
	kind := entry.OrderingFor(attr)
	for _, e := range al.posEQ {
		for _, t := range al.negEQ {
			atoms = append(atoms, atomValuesEqual{e, t})
		}
		for _, g := range al.negGE {
			atoms = append(atoms, atomLE{x: g, y: e, kind: kind})
		}
		for _, l := range al.negLE {
			atoms = append(atoms, atomLE{x: e, y: l, kind: kind})
		}
		for _, p := range al.negSub {
			atoms = append(atoms, atomMatches{x: e, pat: p})
		}
	}
	for _, pp := range al.posSub {
		for _, np := range al.negSub {
			atoms = append(atoms, atomPatternSubsumed{pos: pp, neg: np})
		}
	}

	// Range analysis. Every other positive literal is one range intersected
	// with the negated bounds. A value outside integer syntax satisfies
	// every negated ordering assertion on an integer attribute, so those
	// bounds apply only to the witness of a positive ordering assertion.
	var lows, highs []bound
	if kind != entry.OrderingInteger || len(al.posGE) > 0 || len(al.posLE) > 0 {
		for _, l := range al.negLE {
			lows = append(lows, bound{ref: l, strict: true})
		}
		for _, g := range al.negGE {
			highs = append(highs, bound{ref: g, strict: true})
		}
	}
	empty := func(los, his []bound) {
		for _, lo := range los {
			for _, hi := range his {
				atoms = append(atoms, atomEmptyRange{lo: lo, hi: hi, kind: kind})
			}
		}
	}
	empty(lows, highs)
	for _, g := range al.posGE {
		if kind == entry.OrderingInteger {
			atoms = append(atoms, atomUnparseable{g})
		}
		empty([]bound{{ref: g}}, highs)
	}
	for _, l := range al.posLE {
		if kind == entry.OrderingInteger {
			atoms = append(atoms, atomUnparseable{l})
		}
		empty(lows, []bound{{ref: l}})
	}
	if kind != entry.OrderingInteger {
		// A substring pattern with an initial component confines its witness
		// to [initial, prefixSucc(initial)).
		for _, p := range al.posSub {
			if p.hasInit {
				empty([]bound{{ref: p.initial}}, highs)
				empty(lows, []bound{{ref: p.initial, prefixHigh: true}})
			}
		}
	}
	return atoms, false
}
