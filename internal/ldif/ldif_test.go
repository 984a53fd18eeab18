package ldif

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"io"
	"runtime"
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

// TestReadGroupsValuesPerAttribute: a record whose lines repeat an
// attribute, under any spelling and not next to each other, reads back as
// one attribute per name, in the order the names first appear, with the
// values in the order they appear and duplicates under caseIgnoreMatch
// collapsed onto the first.
func TestReadGroupsValuesPerAttribute(t *testing.T) {
	in := "dn: cn=x,o=xyz\n" +
		"objectClass: top\n" +
		"cn: x\n" +
		"OBJECTCLASS: person\n" +
		"mail: a@x\n" +
		"objectclass: TOP\n" +
		"cn: X\n" +
		"ObjectClass : inetOrgPerson\n" +
		"mail:: Yi14\n" + // b-x
		"cn: y\n"
	got, err := Read(strings.NewReader(in))
	if err != nil || len(got) != 1 {
		t.Fatalf("read %d entries, %v", len(got), err)
	}
	want := []struct {
		name string
		vals []string
	}{
		{"objectclass", []string{"top", "person", "inetOrgPerson"}},
		{"cn", []string{"x", "y"}},
		{"mail", []string{"a@x", "b-x"}},
	}
	e := got[0]
	if e.NumAttrs() != len(want) {
		t.Fatalf("%d attributes: %s", e.NumAttrs(), e)
	}
	for i, w := range want {
		if name, vals := e.AttrAt(i).Name(), e.AttrAt(i).Strings(); name != w.name || strings.Join(vals, "|") != strings.Join(w.vals, "|") {
			t.Errorf("attribute %d = %s %q, want %s %q", i, name, vals, w.name, w.vals)
		}
	}
}

// TestManyValuesRoundTrip: one attribute with 65,536 distinct values, the
// shape that made a reopen quadratic in the value count, reads back exactly
// as written, in order.
func TestManyValuesRoundTrip(t *testing.T) {
	const k = 1 << 16
	vals := make([]string, k)
	for i := range vals {
		vals[i] = fmt.Sprintf("cn=member %d,o=xyz", i)
	}
	e := entry.New(dn.MustParse("cn=group,o=xyz")).Put("objectclass", "groupOfNames").Put("member", vals...)
	var buf bytes.Buffer
	if err := Write(&buf, e); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil || len(got) != 1 {
		t.Fatalf("read %d entries, %v", len(got), err)
	}
	back := got[0].Values("member")
	if len(back) != k {
		t.Fatalf("read back %d values, wrote %d", len(back), k)
	}
	for i := range vals {
		if back[i] != vals[i] {
			t.Fatalf("value %d read back as %q, wrote %q", i, back[i], vals[i])
		}
	}
	if !got[0].HasObjectClass("groupOfNames") || got[0].NumAttrs() != 2 {
		t.Errorf("read back %d attributes", got[0].NumAttrs())
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

// TestReadAllocsLinearInValue is the allocation gate of the LDIF reader on
// one long value, which every durable reopen parses and a single client add
// can plant: the bytes ldif.Read allocates for one entry whose value, folded
// over thousands of lines, is 256 KiB, 1 MiB or 4 MiB stay within 4× the
// input. Joining each continuation onto a copy of the line so far allocated
// bytes that grew with the square of the value's length.
func TestReadAllocsLinearInValue(t *testing.T) {
	for _, size := range []int{256 << 10, 1 << 20, 4 << 20} {
		value := make([]byte, size)
		for i := range value {
			value[i] = 'a' + byte(i%26)
		}
		e := entry.New(dn.MustParse("cn=big,o=xyz")).Put("objectclass", "person").Put("description", string(value))
		var in bytes.Buffer
		if err := Write(&in, e); err != nil {
			t.Fatal(err)
		}
		var least uint64
		for run := 0; run < 3; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := Read(bytes.NewReader(in.Bytes()))
			runtime.ReadMemStats(&after)
			if err != nil || len(got) != 1 || got[0].First("description") != string(value) {
				t.Fatalf("%d KiB value: read %d entries, %v", size>>10, len(got), err)
			}
			if n := after.TotalAlloc - before.TotalAlloc; run == 0 || n < least {
				least = n
			}
		}
		ratio := float64(least) / float64(in.Len())
		t.Logf("Read, one %d KiB value: %.2f× the input's %d B in bytes of allocations", size>>10, ratio, in.Len())
		if ratio > 4 {
			t.Errorf("Read of one %d KiB value allocates %.2f× its input, gate 4×", size>>10, ratio)
		}
	}
}

// TestReadBuildsAsAdd: a record read in place over its own text and one
// that falls back to Add — a base64 value, a repeated value, a name not in
// normal form, more values than are checked pairwise — read back as Add
// builds them, attribute order and value order included.
func TestReadBuildsAsAdd(t *testing.T) {
	for _, tc := range []struct {
		record string
		want   func(e *entry.Entry)
	}{
		{"dn: cn=a,o=xyz\ncn: a\nobjectclass: top\nobjectclass: person\nmail: a@x\n",
			func(e *entry.Entry) { e.Add("cn", "a").Add("objectclass", "top", "person").Add("mail", "a@x") }},
		{"dn: cn=a,o=xyz\ncn: a\ndescription:: aGVsbG8=\n",
			func(e *entry.Entry) { e.Add("cn", "a").Add("description", "hello") }},
		{"dn: cn=a,o=xyz\ncn: a\nsn: B\ncn: A\nsn: c\n",
			func(e *entry.Entry) { e.Add("cn", "a").Add("sn", "B", "c") }},
		{"dn: cn=a,o=xyz\nCN: a\nobjectClass: top\n",
			func(e *entry.Entry) { e.Add("cn", "a").Add("objectclass", "top") }},
		{"dn: cn=a,o=xyz\nm: 1\nm: 2\nm: 3\nm: 4\nm: 5\nm: 6\nm: 7\nm: 8\nm: 9\nm: 1\n",
			func(e *entry.Entry) { e.Add("m", "1", "2", "3", "4", "5", "6", "7", "8", "9") }},
	} {
		got, err := Read(strings.NewReader(tc.record))
		if err != nil || len(got) != 1 {
			t.Fatalf("%q: read %d entries, %v", tc.record, len(got), err)
		}
		want := entry.New(dn.MustParse("cn=a,o=xyz"))
		tc.want(want)
		if a, b := AppendEntry(nil, got[0]), AppendEntry(nil, want); !bytes.Equal(a, b) {
			t.Errorf("%q read as\n%s\nwant\n%s", tc.record, a, b)
		}
	}
}
