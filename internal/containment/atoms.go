// Package containment implements LDAP query and filter containment per
// Section 4 of the paper:
//
//   - Proposition 1: F1 is contained in F2 iff F1 ∧ ¬F2 is inconsistent. The
//     expression is brought to DNF and each conjunct is checked for
//     per-attribute unsatisfiability (empty ranges, contradicted equalities,
//     incompatible substring prefixes).
//   - Proposition 2: for a pair of templates, the containment condition is a
//     CNF of assertion-value comparisons computed once per template pair and
//     then evaluated in O(#atoms) per query pair (see Checker).
//   - Proposition 3: filters of the same template are compared predicate by
//     predicate in O(n).
//
// Semantics and soundness. Containment is decided under LDAP's own
// multi-valued semantics, the one filter.Matches evaluates: a positive
// assertion holds when some value of the attribute satisfies it, a negated
// one when no value does. So each positive assertion has a witness value of
// its own, and two positive assertions never contradict each other:
// (&(sn=a)(sn=b)) matches an entry holding both values. A conjunct is
// inconsistent exactly when one of its positive literals asks for a value
// that the negated literals on the same attribute forbid; every atom below
// proves that for one positive literal. All approximations err on the side
// of "not contained": a replica may generate an unnecessary referral but
// never serves a wrong answer from a false containment claim. What is
// incomplete: a string range is proved empty only when its bounds meet or
// cross, a positive substring pattern meets a negated one only by component
// embedding, a pair whose DNF exceeds filter's expansion bound is never
// contained, and an attribute the directory happens to hold single-valued
// gets no credit for it ((sn=Smith) is not claimed inside (!(sn=Doe))).
// Ordering comparisons use the same per-attribute rules (integer vs
// case-insensitive string) as filter evaluation, which is what makes
// range-emptiness proofs sound.
package containment

import (
	"strings"

	"filterdir/internal/entry"
)

// valRef identifies an assertion value: either a constant (generic Prop 1
// checks) or a slot of the incoming (A) or stored (B) filter (compiled
// Prop 2 conditions).
type valRef struct {
	src  refSrc
	slot int    // slot index for srcA/srcB
	con  string // constant value for srcConst
}

type refSrc int8

const (
	srcConst refSrc = iota
	srcA            // incoming filter (F1) slot
	srcB            // stored filter (F2) slot
)

// markerA / markerB prefix the synthetic slot-marker values used when a
// template pair is compiled. \x01 cannot appear in parsed assertion values
// (Parse rejects raw control escapes only via \XX, which produces it only if
// a query deliberately encodes it; a stray marker-shaped constant would only
// make containment more conservative).
const (
	markerA = "\x01A:"
	markerB = "\x01B:"
)

func refOf(v string) valRef {
	if strings.HasPrefix(v, markerA) {
		return valRef{src: srcA, slot: parseSlot(v[len(markerA):])}
	}
	if strings.HasPrefix(v, markerB) {
		return valRef{src: srcB, slot: parseSlot(v[len(markerB):])}
	}
	return valRef{src: srcConst, con: v}
}

func parseSlot(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		n = n*10 + int(s[i]-'0')
	}
	return n
}

// env resolves slot references during condition evaluation.
type env struct {
	a, b []string
}

func (e env) resolve(r valRef) string {
	switch r.src {
	case srcA:
		if r.slot < len(e.a) {
			return e.a[r.slot]
		}
		return ""
	case srcB:
		if r.slot < len(e.b) {
			return e.b[r.slot]
		}
		return ""
	default:
		return r.con
	}
}

// atom is a single evaluable comparison between assertion values. A conjunct
// of F1 ∧ ¬F2 is inconsistent when at least one of its atoms holds; the
// containment condition is the conjunction over conjuncts of these
// disjunctions (a CNF, per Proposition 2).
type atom interface {
	eval(env) bool
}

// atomValuesEqual holds when a positive equality meets a negated equality on
// the same value.
type atomValuesEqual struct{ x, y valRef }

func (a atomValuesEqual) eval(e env) bool {
	return entry.EqualValues(e.resolve(a.x), e.resolve(a.y))
}

// atomLE holds when x <= y under the attribute's ordering rule: a positive
// equality's value that a negated ordering assertion excludes. An undefined
// comparison (integer ordering with a non-integer operand) is false, as the
// negated assertion then excludes nothing.
type atomLE struct {
	x, y valRef
	kind entry.Ordering
}

func (a atomLE) eval(e env) bool {
	cmp, ok := entry.CompareOrdered(a.kind, e.resolve(a.x), e.resolve(a.y))
	return ok && cmp <= 0
}

// symPattern is a substring pattern whose components are value references.
type symPattern struct {
	initial valRef
	any     []valRef
	final   valRef
	hasInit bool
	hasFin  bool
}

func (p symPattern) resolve(e env) (initial string, any []string, final string) {
	if p.hasInit {
		initial = e.resolve(p.initial)
	}
	for _, r := range p.any {
		any = append(any, e.resolve(r))
	}
	if p.hasFin {
		final = e.resolve(p.final)
	}
	return initial, any, final
}

// atomMatches holds when a positive equality's value satisfies a negated
// substring pattern.
type atomMatches struct {
	x   valRef
	pat symPattern
}

func (a atomMatches) eval(e env) bool {
	i, any, f := a.pat.resolve(e)
	return entry.MatchSubstring(e.resolve(a.x), i, any, f)
}

// atomPatternSubsumed holds when every value matching the positive pattern
// necessarily matches the negated pattern, making
// (attr=pos) ∧ ¬(attr=neg) inconsistent. The check is a sufficient
// condition: neg's initial must prefix pos's initial, neg's final must
// suffix pos's final, and neg's any components must embed in order into
// pos's any components.
type atomPatternSubsumed struct{ pos, neg symPattern }

func (a atomPatternSubsumed) eval(e env) bool {
	pi, pa, pf := a.pos.resolve(e)
	ni, na, nf := a.neg.resolve(e)
	if a.neg.hasInit {
		if !a.pos.hasInit || !entry.HasPrefixValue(pi, ni) {
			return false
		}
	}
	if a.neg.hasFin {
		if !a.pos.hasFin || !entry.HasSuffixValue(pf, nf) {
			return false
		}
	}
	idx := 0
	for _, want := range na {
		found := false
		for idx < len(pa) {
			if entry.ContainsValue(pa[idx], want) {
				found = true
				idx++
				break
			}
			idx++
		}
		if !found {
			return false
		}
	}
	return true
}

// bound is one endpoint of a range constraint on an attribute.
type bound struct {
	ref    valRef
	strict bool
	// prefixHigh marks an upper bound derived from a prefix pattern: the
	// effective endpoint is the prefix successor of the referenced value.
	prefixHigh bool
}

// atomEmptyRange holds when the range [lo, hi] (with strictness flags) is
// provably empty under the attribute's ordering rule. Every range pairs a
// bound with a strict one from a negated assertion, so a string range is
// empty when its bounds meet; an integer range, whose domain is discrete,
// steps each strict bound inward first. An undefined comparison yields
// false (range not provably empty).
type atomEmptyRange struct {
	lo, hi bound
	kind   entry.Ordering
}

func (a atomEmptyRange) eval(e env) bool {
	lo := e.resolve(a.lo.ref)
	hi := e.resolve(a.hi.ref)
	if a.kind == entry.OrderingInteger {
		nlo, okLo := entry.ParseInt(lo)
		nhi, okHi := entry.ParseInt(hi)
		if !okLo || !okHi {
			return false
		}
		if a.lo.strict {
			nlo++
		}
		if a.hi.strict {
			nhi--
		}
		return nlo > nhi
	}
	if a.hi.prefixHigh {
		// The successor is a byte string past the normal form, not a value:
		// build both forms and compare them bytewise.
		succ, ok := prefixSucc(entry.NormValue(hi))
		return ok && strings.Compare(entry.NormValue(lo), succ) >= 0
	}
	cmp, _ := entry.CompareOrdered(entry.OrderingString, lo, hi)
	return cmp >= 0
}

// atomUnparseable holds when an integer-ordering assertion value does not
// parse as an integer: the positive predicate can match nothing.
type atomUnparseable struct{ x valRef }

func (a atomUnparseable) eval(e env) bool {
	_, ok := entry.ParseInt(e.resolve(a.x))
	return !ok
}

// prefixSucc computes the smallest string greater than every string with
// the given prefix: the prefix with its last non-0xff byte incremented and
// the tail dropped. ok is false when no such string exists (all 0xff).
func prefixSucc(p string) (string, bool) {
	b := []byte(p)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xff {
			b[i]++
			return string(b[:i+1]), true
		}
	}
	return "", false
}
