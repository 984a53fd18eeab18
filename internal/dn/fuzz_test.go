package dn

import (
	"testing"

	"filterdir/internal/dn/dntest"
)

// FuzzParseDN feeds arbitrary strings to the DN parser. Properties: Parse
// never panics; it agrees with the parser it replaced (reference_test.go) on
// the verdict, the normal form, the presentation form and the RDNs, and every
// ancestor's suffix-derived normal form is the one rebuilt from its RDNs; and
// every accepted DN's printed form is a fixed point — it re-parses to the
// same string and the same normalized form, so DNs survive a wire round trip
// without drifting.
func FuzzParseDN(f *testing.F) {
	for _, s := range dntest.Corpus {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, s string) {
		checkAgainstReference(t, s)
		d, err := Parse(s)
		if err != nil {
			return // rejection is fine; panicking is not
		}
		printed := d.String()
		d2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed DN %q (from %q) does not re-parse: %v", printed, s, err)
		}
		if again := d2.String(); again != printed {
			t.Fatalf("print not a fixed point: %q -> %q (input %q)", printed, again, s)
		}
		if d2.Norm() != d.Norm() {
			t.Fatalf("norm drifted across round trip: %q -> %q (input %q)", d.Norm(), d2.Norm(), s)
		}
	})
}
