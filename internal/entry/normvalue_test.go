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
