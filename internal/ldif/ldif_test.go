package ldif

import (
	"bytes"
	"encoding/base64"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"filterdir/internal/dn"
	"filterdir/internal/dn/dntest"
	"filterdir/internal/entry"
)

func sample() []*entry.Entry {
	e1 := entry.New(dn.MustParse("cn=John Doe,ou=research,c=us,o=xyz"))
	e1.Put("objectclass", "top", "inetOrgPerson")
	e1.Put("cn", "John Doe", "John M Doe")
	e1.Put("sn", "Doe")
	e1.Put("mail", "john@us.xyz.com")
	e2 := entry.New(dn.MustParse("c=us,o=xyz"))
	e2.Put("objectclass", "country")
	e2.Put("c", "us")
	return []*entry.Entry{e1, e2}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := sample()
	if err := Write(&buf, in...); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d entries, want %d", len(out), len(in))
	}
	for i := range in {
		if !in[i].Equal(out[i]) {
			t.Errorf("entry %d mismatch:\n in: %s\nout: %s", i, in[i], out[i])
		}
	}
}

func TestBase64Values(t *testing.T) {
	e := entry.New(dn.MustParse("cn=x,o=xyz"))
	e.Put("objectclass", "person")
	e.Put("description", " leading space")
	e.Put("cn", "x")
	e.Put("sn", "tab\tinside")
	var buf bytes.Buffer
	if err := Write(&buf, e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "description:: ") {
		t.Errorf("unsafe value not base64 encoded:\n%s", buf.String())
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].First("description") != " leading space" {
		t.Errorf("base64 round trip failed: %q", out[0].First("description"))
	}
	if out[0].First("sn") != "tab\tinside" {
		t.Errorf("control char round trip failed: %q", out[0].First("sn"))
	}
}

func TestLineFolding(t *testing.T) {
	e := entry.New(dn.MustParse("cn=x,o=xyz"))
	e.Put("objectclass", "person")
	e.Put("cn", "x")
	e.Put("description", strings.Repeat("abcdefghij", 30)) // 300 chars
	var buf bytes.Buffer
	if err := Write(&buf, e); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if len(line) > 76 {
			t.Errorf("unfolded line of length %d: %q", len(line), line[:40])
		}
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0].First("description"); got != strings.Repeat("abcdefghij", 30) {
		t.Errorf("folded value corrupted, len=%d", len(got))
	}
}

func TestReadSkipsCommentsAndVersion(t *testing.T) {
	src := "version: 1\n# a comment\ndn: cn=x,o=xyz\n# mid comment\ncn: x\nobjectclass: person\n\n"
	out, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].First("cn") != "x" {
		t.Fatalf("unexpected parse result: %v", out)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"cn: x\n\n",                    // no dn line
		"dn: cn=x,o=xyz\nbogus line\n", // missing colon
		" continuation first\n",        // continuation with no prior line
		"dn: cn=x,o=xyz\ncn:: !!!\n",   // bad base64
		"dn: =bad\ncn: x\n",            // invalid DN
	}
	for _, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", src)
		}
	}
}

func TestStreamingReader(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()...); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	n := 0
	for {
		_, err := r.Next()
		if err != nil {
			break
		}
		n++
	}
	if n != 2 {
		t.Errorf("streamed %d entries, want 2", n)
	}
}

func TestQuickValueRoundTrip(t *testing.T) {
	f := func(val string) bool {
		if strings.ContainsAny(val, "\n\r") || len(val) > 500 {
			return true // newlines inside values are not representable in one attr line... base64 handles them
		}
		e := entry.New(dn.MustParse("cn=x,o=xyz"))
		e.Put("objectclass", "person")
		e.Put("cn", "x")
		if val != "" {
			e.Put("description", val)
		}
		var buf bytes.Buffer
		if err := Write(&buf, e); err != nil {
			return false
		}
		out, err := Read(&buf)
		if err != nil || len(out) != 1 {
			return false
		}
		return out[0].Equal(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// refLine is the line writer the append-style one replaced, kept as its
// reference: name, separator and value joined into a string, then cut into
// folded pieces by further concatenation. The bytes must not have moved.
func refLine(w *bytes.Buffer, name, value string) {
	var line string
	if safeValue(value) {
		line = name + ": " + value
	} else {
		line = name + ":: " + base64.StdEncoding.EncodeToString([]byte(value))
	}
	for len(line) > foldWidth {
		w.WriteString(line[:foldWidth] + "\n")
		line = " " + line[foldWidth:]
	}
	w.WriteString(line + "\n")
}

func refEntry(w *bytes.Buffer, e *entry.Entry) {
	refLine(w, "dn", e.DN().String())
	for _, name := range e.AttributeNames() {
		for _, v := range e.Values(name) {
			refLine(w, name, v)
		}
	}
}

// TestWriteMatchesReference holds Write to the writer it replaced, byte for
// byte, and to Read as its inverse, on every DN of the dn fuzz corpus that
// parses and on values chosen around the fold width and the base64 rules.
func TestWriteMatchesReference(t *testing.T) {
	values := []string{"", "x", " lead", "trail ", ":colon", "<angle", "tab\tin", "café", "\x00",
		strings.Repeat("v", foldWidth-len("description: ")-1),
		strings.Repeat("v", foldWidth-len("description: ")),
		strings.Repeat("v", foldWidth-len("description: ")+1),
		strings.Repeat("v", 2*foldWidth-len("description: ")-1),
		strings.Repeat("v", 2*foldWidth-len("description: ")),
		strings.Repeat("w", 1000), strings.Repeat("é", 200)}
	var entries []*entry.Entry
	for _, s := range append([]string{"cn=" + strings.Repeat("long", 30) + ",o=xyz"}, dntest.Corpus...) {
		d, err := dn.Parse(s)
		if err != nil {
			continue
		}
		e := entry.New(d).Put("objectclass", "person")
		for _, v := range values {
			e.Add("description", v)
		}
		entries = append(entries, e)
	}
	if len(entries) < 20 {
		t.Fatalf("only %d corpus DNs parsed", len(entries))
	}
	var got, want bytes.Buffer
	if err := Write(&got, entries...); err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if i > 0 {
			want.WriteString("\n")
		}
		refEntry(&want, e)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Write differs from the reference writer:\n got %q\nwant %q", got.Bytes(), want.Bytes())
	}
	back, err := Read(&got)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(entries) {
		t.Fatalf("read back %d entries, wrote %d", len(back), len(entries))
	}
	for i, e := range entries {
		if !e.Equal(back[i]) || back[i].DN().String() != e.DN().String() {
			t.Errorf("entry %q does not survive Write then Read: %s", e.DN().String(), back[i])
		}
	}
}

// TestWriteAllocsPerEntry is the allocation gate of the LDIF writer, which a
// durable leaf runs once per landed update: a Table-1 employee — 512-byte
// description included, so the fold is on the path — is rendered into the
// output buffer and nowhere else. What a Write of many still allocates is
// that buffer growing to its flush size, once.
func TestWriteAllocsPerEntry(t *testing.T) {
	const n = 1000
	e := entry.New(dn.MustParse("cn=emp us 17,c=us,o=xyz"))
	e.Put("objectclass", "top", "person", "organizationalPerson", "inetOrgPerson")
	e.Put("cn", "emp us 17").Put("sn", "sn17").Put("serialNumber", "100017")
	e.Put("uid", "u100017").Put("mail", "qzkxv@us.xyz.com").Put("departmentNumber", "231")
	e.Put("telephoneNumber", "555-0117").Put("description", strings.Repeat("x", 512))
	entries := make([]*entry.Entry, n)
	for i := range entries {
		entries[i] = e
	}
	perEntry := testing.AllocsPerRun(5, func() {
		if err := Write(io.Discard, entries...); err != nil {
			t.Fatal(err)
		}
	}) / n
	t.Logf("Write: %.2f allocations per entry of a %d-entry snapshot", perEntry, n)
	if perEntry >= 0.05 {
		t.Errorf("Write allocates %.2f times per entry, want 0", perEntry)
	}
}
