package entry

import (
	"strings"
	"testing"
)

// refNormValue is NormValue as it was before it learned to recognise a value
// that is already normal: the definition the fast path is held to.
func refNormValue(s string) string {
	return strings.ToLower(strings.Join(strings.Fields(s), " "))
}

// normValueCorpus covers every way a value can fail to be its own normal
// form — case, ASCII and non-ASCII white space, at the ends and in runs,
// invalid UTF-8 — and the forms that must come back untouched.
var normValueCorpus = []string{
	"", " ", "  ", "a", "100017", "qzkxv@us.xyz.com", "emp us 17", "Emp US 17",
	" a", "a ", "a  b", "a \t b", "a\tb", "\ta", "a\n", "a\u00a0b", "a\u0085b", "a\u2003b", "\u3000",
	"müller", "MÜLLER", "İstanbul", "\u212a", "\u01c5", "ß", "é è", "é  è",
	"\xff", "a\xffb", "a \xa0 b", "\xc2", "\ufffd", "a\ufffdb",
}

func checkNormValue(t *testing.T, s string) {
	t.Helper()
	got, want := NormValue(s), refNormValue(s)
	if got != want {
		t.Fatalf("NormValue(%q) = %q, reference %q", s, got, want)
	}
	if again := NormValue(got); again != got {
		t.Fatalf("NormValue(%q) = %q is not a fixed point: %q", s, got, again)
	}
}

func TestNormValueMatchesReference(t *testing.T) {
	for _, s := range normValueCorpus {
		checkNormValue(t, s)
	}
}

// FuzzNormValue holds NormValue to the reference on arbitrary input.
func FuzzNormValue(f *testing.F) {
	for _, s := range normValueCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkNormValue(t, s) })
}

// TestNormValueAllocs: indexing, filter matching and containment normalise
// the same stored values over and over; a value that is already normal costs
// a scan, not a copy.
func TestNormValueAllocs(t *testing.T) {
	var sink string
	for _, v := range []string{"100017", "qzkxv@us.xyz.com", "emp us 17", "müller"} {
		allocs := testing.AllocsPerRun(200, func() { sink = NormValue(v) })
		if sink != v {
			t.Fatalf("NormValue(%q) = %q", v, sink)
		}
		t.Logf("entry.NormValue(%q): %.0f allocations", v, allocs)
		if allocs != 0 {
			t.Errorf("NormValue(%q) allocates %.0f times, gate is 0", v, allocs)
		}
	}
}

// refMatchSubstring is MatchSubstring as it was before it compared in place:
// both normal forms built in full, then searched.
func refMatchSubstring(value, initial string, any []string, final string) bool {
	v := refNormValue(value)
	if initial != "" {
		p := refNormValue(initial)
		if !strings.HasPrefix(v, p) {
			return false
		}
		v = v[len(p):]
	}
	for _, a := range any {
		if a == "" {
			continue
		}
		p := refNormValue(a)
		i := strings.Index(v, p)
		if i < 0 {
			return false
		}
		v = v[i+len(p):]
	}
	return final == "" || strings.HasSuffix(v, refNormValue(final))
}

// checkComparers holds every in-place comparer to the same question asked of
// the reference normal forms of its operands.
func checkComparers(t *testing.T, a, b, c string) {
	t.Helper()
	na, nb := refNormValue(a), refNormValue(b)
	if got, want := EqualValues(a, b), na == nb; got != want {
		t.Fatalf("EqualValues(%q, %q) = %v, reference %v", a, b, got, want)
	}
	if got, _ := CompareOrdered(OrderingString, a, b); got != strings.Compare(na, nb) {
		t.Fatalf("CompareOrdered(string, %q, %q) = %d, reference %d", a, b, got, strings.Compare(na, nb))
	}
	if got, want := HasPrefixValue(a, b), strings.HasPrefix(na, nb); got != want {
		t.Fatalf("HasPrefixValue(%q, %q) = %v, reference %v", a, b, got, want)
	}
	if got, want := HasSuffixValue(a, b), strings.HasSuffix(na, nb); got != want {
		t.Fatalf("HasSuffixValue(%q, %q) = %v, reference %v", a, b, got, want)
	}
	if got, want := ContainsValue(a, b), strings.Contains(na, nb); got != want {
		t.Fatalf("ContainsValue(%q, %q) = %v, reference %v", a, b, got, want)
	}
	for _, p := range []struct {
		initial string
		any     []string
		final   string
	}{
		{b, nil, ""}, {"", []string{b}, ""}, {"", nil, b}, {b, []string{c}, ""},
		{"", []string{b, c}, ""}, {b, nil, c}, {b, []string{c}, b},
	} {
		got, want := MatchSubstring(a, p.initial, p.any, p.final), refMatchSubstring(a, p.initial, p.any, p.final)
		if got != want {
			t.Fatalf("MatchSubstring(%q, %q, %q, %q) = %v, reference %v", a, p.initial, p.any, p.final, got, want)
		}
	}
}

// TestComparersMatchReference runs every pair of the corpus, and each pair
// with one side upper-cased or padded, through checkComparers.
func TestComparersMatchReference(t *testing.T) {
	for _, a := range normValueCorpus {
		for _, b := range normValueCorpus {
			checkComparers(t, a, b, a)
			checkComparers(t, a, strings.ToUpper(b), b)
			checkComparers(t, " "+a+"  x", b+" ", a)
		}
	}
}

// FuzzEqualValues holds the in-place equality, ordering and substring
// comparers to the reference normal form on arbitrary operands.
func FuzzEqualValues(f *testing.F) {
	for i, a := range normValueCorpus {
		b := normValueCorpus[(i*7+3)%len(normValueCorpus)]
		f.Add(a, b, a)
		f.Add(a+" "+b, strings.ToUpper(a), b)
	}
	f.Fuzz(checkComparers)
}
