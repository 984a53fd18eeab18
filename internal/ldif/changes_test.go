package ldif

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
)

// journalChanges produces one change of each type from a live store.
func journalChanges(t *testing.T) []dit.Change {
	t.Helper()
	st, err := dit.NewStore([]string{"o=xyz"})
	if err != nil {
		t.Fatal(err)
	}
	org := entry.New(dn.MustParse("o=xyz"))
	org.Put("objectclass", "organization").Put("o", "xyz")
	if err := st.Add(org); err != nil {
		t.Fatal(err)
	}
	e := entry.New(dn.MustParse("cn=a,o=xyz"))
	e.Put("objectclass", "person").Put("cn", "a").Put("sn", "a")
	if err := st.Add(e); err != nil {
		t.Fatal(err)
	}
	if err := st.Modify(e.DN(), []dit.Mod{
		{Op: dit.ModReplace, Attr: "sn", Values: []string{"b"}},
		{Op: dit.ModAdd, Attr: "mail", Values: []string{"a@x", "b@x"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.ModifyDN(e.DN(), dn.RDN{Attr: "cn", Value: "renamed"}, dn.MustParse("o=xyz")); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(dn.MustParse("cn=renamed,o=xyz")); err != nil {
		t.Fatal(err)
	}
	changes, ok := st.ChangesSince(1) // skip the org add
	if !ok {
		t.Fatal("journal trimmed")
	}
	return changes
}

func TestChangesRoundTrip(t *testing.T) {
	changes := journalChanges(t)
	var buf bytes.Buffer
	if err := WriteChanges(&buf, changes...); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"changetype: add", "changetype: modify", "changetype: modrdn", "changetype: delete", "newrdn: cn=renamed"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	recs, err := ReadChanges(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(changes) {
		t.Fatalf("parsed %d records, want %d", len(recs), len(changes))
	}
	for i, rec := range recs {
		if rec.Type != changes[i].Type {
			t.Errorf("record %d type = %v, want %v", i, rec.Type, changes[i].Type)
		}
		if !rec.DN.Equal(changes[i].DN) {
			t.Errorf("record %d dn = %s, want %s", i, rec.DN, changes[i].DN)
		}
	}
	// The modify record preserves its mods.
	mod := recs[1]
	if len(mod.Mods) != 2 || mod.Mods[0].Op != dit.ModReplace || mod.Mods[0].Attr != "sn" {
		t.Errorf("modify mods = %+v", mod.Mods)
	}
	if len(mod.Mods[1].Values) != 2 {
		t.Errorf("mod add values = %v", mod.Mods[1].Values)
	}
	// The modrdn record reconstructs the new DN.
	if got := recs[2].NewDN.String(); got != "cn=renamed,o=xyz" {
		t.Errorf("modrdn new DN = %s", got)
	}
	// The add record carries the entry's attributes.
	if len(recs[0].Attrs["objectclass"]) == 0 || recs[0].Attrs["sn"][0] != "a" {
		t.Errorf("add attrs = %v", recs[0].Attrs)
	}
}

func TestReadChangesErrors(t *testing.T) {
	cases := []string{
		"dn: cn=a,o=xyz\n\n",                              // missing changetype
		"dn: cn=a,o=xyz\nchangetype: warp\n\n",            // unknown type
		"dn: cn=a,o=xyz\nchangetype: modify\nwarp: sn\n-", // unknown verb
		"dn: cn=a,o=xyz\nchangetype: modrdn\n\n",          // missing newrdn
		"changetype: add\n\n",                             // missing dn
	}
	for _, src := range cases {
		if _, err := ReadChanges(strings.NewReader(src)); err == nil {
			t.Errorf("ReadChanges(%q) succeeded", src)
		}
	}
}

// WriteChanges renders journal changes as LDIF change records (RFC 2849
// changetype syntax): add records carry the full entry, modify records the
// attribute-level changes, delete records the DN, and modrdn records the
// new RDN and superior. This is the interchange form a changelog-style
// consumer would read.
func WriteChanges(w io.Writer, changes ...dit.Change) error {
	return writeRecords(w, len(changes), func(b []byte, i int) ([]byte, error) {
		return AppendChange(b, changes[i])
	})
}
