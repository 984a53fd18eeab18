package containment

import (
	"strings"
	"sync"
	"testing"

	"filterdir/internal/entry"
	"filterdir/internal/filter"
)

func TestPrefixSucc(t *testing.T) {
	tests := []struct {
		in   string
		want string
		ok   bool
	}{
		{"a", "b", true},
		{"az", "a{", true}, // '{' is 'z'+1
		{"04", "05", true},
		{"ab\xff", "ac", true},  // trailing 0xff dropped, prior byte bumped
		{"\xff\xff", "", false}, // no successor
		{"a\xff\xff", "b", true},
		{"", "", false}, // empty prefix covers everything
	}
	for _, tt := range tests {
		got, ok := prefixSucc(tt.in)
		if ok != tt.ok || got != tt.want {
			t.Errorf("prefixSucc(%q) = %q, %v; want %q, %v", tt.in, got, ok, tt.want, tt.ok)
		}
	}
	// Semantics: for every string s with prefix p, p <= s < succ(p).
	for _, p := range []string{"a", "04", "smi"} {
		succ, ok := prefixSucc(p)
		if !ok {
			t.Fatalf("prefixSucc(%q) failed", p)
		}
		for _, suffix := range []string{"", "0", "zzz", "\xff"} {
			s := p + suffix
			if !(p <= s && s < succ) {
				t.Errorf("value %q with prefix %q outside [%q, %q)", s, p, p, succ)
			}
		}
	}
}

func TestConditionAtomCounts(t *testing.T) {
	// The compiled plan for EQ-in-prefix has a small, fixed condition.
	f1 := mustParse("(serialnumber=0456)")
	f2 := mustParse("(serialnumber=04*)")
	m1 := withMarkers(f1, markerA)
	m2 := withMarkers(f2, markerB)
	expr := filter.NewAnd(m1, filter.NewNot(m2))
	conj, err := expr.DNF()
	if err != nil {
		t.Fatal(err)
	}
	cond, v := derive(conj)
	if v != verdictCompiled {
		t.Fatalf("verdict = %v", v)
	}
	if cond.atomCount() == 0 || cond.atomCount() > 8 {
		t.Errorf("atom count = %d, want small and nonzero", cond.atomCount())
	}
	// Evaluating with the real values agrees with the generic check.
	env := env{a: f1.SlotValues(), b: f2.SlotValues()}
	if !cond.eval(env) {
		t.Error("compiled condition rejects a true containment")
	}
}

func TestWithMarkersMatchesSlotOrder(t *testing.T) {
	f := mustParse("(&(sn=Doe)(serialnumber=04*)(age>=30))")
	m := withMarkers(f, markerA)
	slots := m.SlotValues()
	for i, s := range slots {
		want := markerA + itoa(i)
		if s != want {
			t.Errorf("slot %d = %q, want %q", i, s, want)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestCheckerConcurrentUse(t *testing.T) {
	// Plan compilation and evaluation from many goroutines; -race guards
	// the cache locking.
	c := NewChecker()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f1 := mustParse("(serialnumber=04" + itoa(i%10) + itoa(w) + ")")
				f2 := mustParse("(serialnumber=04" + itoa(i%10) + "*)")
				if !c.FilterContains(f1, f2) {
					panic("containment must hold")
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.PlansCompiled != 1 {
		t.Errorf("PlansCompiled = %d, want 1 (one template pair)", st.PlansCompiled)
	}
}

func TestAtomEmptyRangeIntegerDiscrete(t *testing.T) {
	// (age >= 30) ∧ ¬(age >= 31): over integers, only 30 remains —
	// nonempty; (age >= 31) ∧ ¬(age >= 30): empty.
	ok := contains2(t, "(age>=30)", "(age>=31)")
	if ok {
		t.Error("(age>=30) is not contained in (age>=31)")
	}
	if !contains2(t, "(age>=31)", "(age>=30)") {
		t.Error("(age>=31) must be contained in (age>=30)")
	}
	// Discrete boundary: a value >= 30 that is neither >= 31 nor <= 30 lies
	// strictly between 30 and 31, and no integer does.
	if !contains2(t, "(&(age>=30)(!(age>=31)))", "(age<=30)") {
		t.Error("discrete integer boundary not recognized")
	}
}

func contains2(t *testing.T, a, b string) bool {
	t.Helper()
	ok, err := genericContains(mustParse(a), mustParse(b))
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func TestStringRangeDensity(t *testing.T) {
	// Dense string domain: a value neither >= c nor <= c does not exist, so
	// the witness of (sn>=b) under ¬(sn>=c) satisfies (sn<=c).
	if !contains2(t, "(&(sn>=b)(!(sn>=c)))", "(sn<=c)") {
		t.Error("(&(sn>=b)(!(sn>=c))) must be contained in (sn<=c)")
	}
	// But (sn>=a) ∧ ¬(sn>=a\x00...) has values between: conservative no.
	if contains2(t, "(sn>=a)", "(sn>=b)") {
		t.Error("(sn>=a) not contained in (sn>=b)")
	}
}

func TestNormValueConsistency(t *testing.T) {
	// The condition machinery and the matcher agree on normalization.
	if !entry.EqualValues("A  B", "a b") {
		t.Fatal("normalization drifted")
	}
	if !strings.EqualFold("Doe", "doe") {
		t.Fatal("fold drifted")
	}
}
