package dn

import "testing"

// FuzzParseDN feeds arbitrary strings to the DN parser. Property: Parse
// never panics, and every accepted DN's printed form is a fixed point —
// it re-parses to the same string and the same normalized form, so DNs
// survive a wire round trip without drifting.
func FuzzParseDN(f *testing.F) {
	f.Add("cn=e1,ou=oracle,o=xyz")
	f.Add("CN=Alice, OU = People , O=xyz")
	f.Add("cn=with\\,comma,o=xyz")
	f.Add("cn=with\\=equals,o=xyz")
	f.Add("cn=trailing\\ space\\ ,o=xyz")
	f.Add("ou=multi+cn=valued,o=xyz")
	f.Add("")
	f.Add("=novalue")
	f.Add("cn=")
	f.Add("cn=a,,o=b")
	f.Add("0=\\09") // a value that is a lone tab: must print hex-escaped

	f.Fuzz(func(t *testing.T, s string) {
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
