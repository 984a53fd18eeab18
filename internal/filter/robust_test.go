package filter

import (
	"math/rand"
	"strings"
	"testing"
)

// TestParseNeverPanics feeds the parser random byte soup and structured
// garbage; it must return errors, never panic, and anything it accepts must
// survive a print/reparse round trip.
func TestParseNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	alphabet := []byte("()&|!=<>~*\\abz019 _.")
	for i := 0; i < 20000; i++ {
		n := r.Intn(40)
		b := make([]byte, n)
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		s := string(b)
		f, err := Parse(s)
		if err != nil {
			continue
		}
		printed := f.String()
		rt, err := Parse(printed)
		if err != nil {
			t.Fatalf("accepted %q, printed %q, reparse failed: %v", s, printed, err)
		}
		if rt.String() != printed {
			t.Fatalf("unstable round trip: %q -> %q -> %q", s, printed, rt.String())
		}
	}
}

// TestParseDeepNesting guards the parser against stack abuse from deeply
// nested filters.
func TestParseDeepNesting(t *testing.T) {
	depth := 10000
	s := strings.Repeat("(!", depth) + "(a=1)" + strings.Repeat(")", depth)
	f, err := Parse(s)
	if err != nil {
		// Rejecting is acceptable; panicking is not (the call above would
		// have crashed the test).
		return
	}
	// Normalization of a deep NOT chain must also hold up.
	n := f.Normalize()
	if n == nil {
		t.Fatal("normalize returned nil")
	}
}

// TestNormalizeIdempotent checks Normalize(Normalize(f)) == Normalize(f).
func TestNormalizeIdempotent(t *testing.T) {
	filters := []string{
		"(&(b=2)(a=1)(&(c=3)(d=4)))",
		"(|(a=1)(|(b=2)(a=1)))",
		"(!(|(a=1)(b=2)))",
		"(&(objectclass=*)(sn=smi*))",
		"(&)",
		"(|)",
	}
	for _, s := range filters {
		once := mustParse(s).Normalize()
		twice := once.Normalize()
		if once.String() != twice.String() {
			t.Errorf("Normalize not idempotent for %s: %s vs %s", s, once, twice)
		}
	}
}

// TestTemplateStableUnderNormalize checks that equal filters modulo value
// differences keep equal templates after normalization.
func TestTemplateStableUnderNormalize(t *testing.T) {
	a := mustParse("(&(div=sw)(dept=2406))").Normalize().Template()
	b := mustParse("(&(dept=11)(div=hw))").Normalize().Template()
	if a != b {
		t.Errorf("templates diverge after normalize: %q vs %q", a, b)
	}
}
