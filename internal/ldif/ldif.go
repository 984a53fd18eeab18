// Package ldif reads and writes directory entries in LDIF (RFC 2849
// subset): one record per entry, "attr: value" lines, base64 encoding for
// unsafe values, line folding on write, comments and version lines ignored
// on read. Change records (changetype add, delete, modify, modrdn) are
// written from and read back as dit.Change values; an add record's entry is
// built by the builder content records use.
package ldif

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"unsafe"

	"filterdir/internal/dn"
	"filterdir/internal/entry"
)

// ErrBadRecord reports a malformed LDIF record.
var ErrBadRecord = errors.New("bad LDIF record")

const foldWidth = 76

// Write renders entries as LDIF records separated by blank lines.
func Write(w io.Writer, entries ...*entry.Entry) error {
	return writeRecords(w, len(entries), func(b []byte, i int) ([]byte, error) {
		return AppendEntry(b, entries[i]), nil
	})
}

// flushAt is how much rendered LDIF Write gathers before it hands it to the
// io.Writer.
const flushAt = 32 << 10

// writeRecords renders n records, a blank line between two, through one
// buffer that is written out whenever it holds flushAt bytes.
func writeRecords(w io.Writer, n int, record func(b []byte, i int) ([]byte, error)) error {
	var b []byte
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, '\n')
		}
		var err error
		if b, err = record(b, i); err != nil {
			return err
		}
		if len(b) >= flushAt || i == n-1 {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	return nil
}

// AppendEntry appends e as one LDIF content record — its dn line, then one
// line per attribute value — to b. Nothing is allocated beyond b's growth,
// except for a DN or a value that has to be escaped.
func AppendEntry(b []byte, e *entry.Entry) []byte {
	b = appendDN(b, e.DN())
	for i := 0; i < e.NumAttrs(); i++ {
		a := e.AttrAt(i)
		for k := 0; k < a.Len(); k++ {
			b = appendLine(b, a.Name(), a.At(k))
		}
	}
	return b
}

// appendDN appends the "dn:" line that opens a record. The DN is rendered
// into b first and only then judged safe or not, so the common one costs no
// string of its own.
func appendDN(b []byte, d dn.DN) []byte {
	start := len(b)
	b = append(b, "dn: "...)
	b = d.AppendString(b)
	if safeValue(b[start+len("dn: "):]) {
		return finishLine(b, start)
	}
	return appendLine(b[:start], "dn", d.String())
}

// appendLine appends "name: value" — "name:: " and base64 for a value RFC
// 2849 does not allow in the clear — folded at foldWidth.
func appendLine(b []byte, name, value string) []byte {
	start := len(b)
	b = append(b, name...)
	if safeValue(value) {
		b = append(b, ": "...)
		b = append(b, value...)
	} else {
		b = append(b, ":: "...)
		b = base64.StdEncoding.AppendEncode(b, []byte(value))
	}
	return finishLine(b, start)
}

// finishLine ends the line that starts at b[start], folding it in place
// when it is longer than foldWidth: a newline and a space go in after the
// first foldWidth bytes and after every foldWidth-1 that follow, which the
// tail makes room for by moving back, last piece first.
func finishLine(b []byte, start int) []byte {
	n := len(b) - start
	if n > foldWidth {
		const piece = foldWidth - 1
		k := (n - foldWidth + piece - 1) / piece
		b = slices.Grow(b, 2*k+1)[:len(b)+2*k]
		for c := k; c >= 1; c-- {
			src := start + foldWidth + (c-1)*piece
			dst := src + 2*c
			copy(b[dst:], b[src:min(src+piece, start+n)])
			b[dst-2], b[dst-1] = '\n', ' '
		}
	}
	return append(b, '\n')
}

// safeValue reports whether a value can be written without base64 per
// RFC 2849: printable ASCII, no leading space/colon/less-than, no trailing
// space.
func safeValue[V string | []byte](v V) bool {
	if len(v) == 0 {
		return true
	}
	if v[0] == ' ' || v[0] == ':' || v[0] == '<' {
		return false
	}
	if v[len(v)-1] == ' ' {
		return false
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c < 0x20 || c > 0x7e {
			return false
		}
	}
	return true
}

// Read parses all LDIF records from r.
func Read(r io.Reader) ([]*entry.Entry, error) {
	var out []*entry.Entry
	rd := NewReader(r)
	for {
		e, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// Reader streams LDIF records one entry at a time.
type Reader struct {
	sc     *bufio.Scanner
	lineNo int
	rec    joiner // the record being read
}

// NewReader wraps r for streaming reads. Lines up to 1 MiB are supported.
func NewReader(r io.Reader) *Reader { return newReader(r, make([]byte, 64*1024)) }

// newReader reads through buf, which no record it returns refers to.
func newReader(r io.Reader, buf []byte) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(buf, 1024*1024)
	return &Reader{sc: sc}
}

// Next returns the next entry, or io.EOF when the stream is exhausted.
func (r *Reader) Next() (*entry.Entry, error) {
	rec, lines, err := r.nextRecord()
	if err != nil {
		return nil, err
	}
	d, err := recordDN(lines[0])
	if err != nil {
		return nil, err
	}
	return buildEntry(rec, d, lines[1:])
}

// nextRecord returns the next record — its logical lines, folding resolved,
// joined in one string — and the lines, substrings of it; or io.EOF.
func (r *Reader) nextRecord() (string, []string, error) {
	for r.sc.Scan() {
		r.lineNo++
		line := bytes.TrimRight(r.sc.Bytes(), "\r")
		switch {
		case len(line) == 0:
			if r.rec.open {
				rec, lines := r.rec.record()
				return rec, lines, nil
			}
		case line[0] == '#':
		case !r.rec.open && bytes.HasPrefix(line, []byte("version:")):
		case line[0] == ' ':
			if !r.rec.open {
				return "", nil, fmt.Errorf("%w: continuation at line %d with no preceding line", ErrBadRecord, r.lineNo)
			}
			r.rec.add(line[1:])
		default:
			r.rec.begin()
			r.rec.add(line)
		}
	}
	if !r.rec.open {
		if err := r.sc.Err(); err != nil {
			return "", nil, err
		}
		return "", nil, io.EOF
	}
	rec, lines := r.rec.record()
	return rec, lines, nil
}

// joiner assembles a record from the pieces its logical lines are folded
// into: the pieces go into chunks of 512 bytes, then of twice the size of
// the one before, which are never copied and are kept for the next record,
// and the record is then copied once into a string of its exact length. So
// a record of n bytes costs time linear in n and at most about 3n bytes of
// allocation however it is folded — a buffer doubling as it grows could cost
// 4n — and an entry assembled over that string costs nothing more for its
// names and values.
type joiner struct {
	chunks [][]byte // chunks[:used] hold the record, the rest are empty
	used   int
	n      int
	ends   []int // where each logical line but the one being read ends
	open   bool  // a line is being read
}

// begin ends the logical line being read, if any, and starts the next.
func (j *joiner) begin() {
	if j.open {
		j.ends = append(j.ends, j.n)
	}
	j.open = true
}

func (j *joiner) add(b []byte) {
	j.n += len(b)
	for {
		if j.used == 0 || len(j.chunks[j.used-1]) == cap(j.chunks[j.used-1]) {
			if j.used == len(j.chunks) {
				j.chunks = append(j.chunks, make([]byte, 0, 512<<len(j.chunks)))
			}
			j.used++
		}
		c := &j.chunks[j.used-1]
		k := min(len(b), cap(*c)-len(*c))
		*c = append(*c, b[:k]...)
		if b = b[k:]; len(b) == 0 {
			return
		}
	}
}

// record returns the record joined so far and its logical lines, and starts
// the next.
func (j *joiner) record() (string, []string) {
	j.begin()
	var sb strings.Builder
	sb.Grow(j.n)
	for i := range j.used {
		sb.Write(j.chunks[i])
		j.chunks[i] = j.chunks[i][:0]
	}
	rec := sb.String()
	lines := make([]string, len(j.ends))
	lo := 0
	for i, hi := range j.ends {
		lines[i] = rec[lo:hi]
		lo = hi
	}
	j.used, j.n, j.ends, j.open = 0, 0, j.ends[:0], false
	return rec, lines
}

// recordDN parses the "dn:" line that opens every record.
func recordDN(line string) (dn.DN, error) {
	name, value, err := splitLine(line)
	if err != nil {
		return dn.DN{}, err
	}
	if !strings.EqualFold(name, "dn") {
		return dn.DN{}, fmt.Errorf("%w: record must start with dn:, got %q", ErrBadRecord, line)
	}
	d, err := dn.Parse(value)
	if err != nil {
		return dn.DN{}, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	return d, nil
}

// buildEntry builds the entry at d from the attribute lines of the record
// rec, a content record's or an add record's. The common record — nothing
// base64-encoded, a few values per attribute, none repeated — becomes an
// entry over rec itself: its names and values are ranges of the record, in
// the order of each name's first line. Any other is added attribute by
// attribute, which copies the values.
func buildEntry(rec string, d dn.DN, lines []string) (*entry.Entry, error) {
	type field struct{ norm, name, value string }
	fields := make([]field, len(lines))
	inPlace := true
	for i, line := range lines {
		name, value, err := splitLine(line)
		if err != nil {
			return nil, err
		}
		fields[i] = field{entry.NormName(name), name, value}
		// A base64 value was decoded into a string of its own.
		inPlace = inPlace && !strings.HasPrefix(line[strings.IndexByte(line, ':')+1:], ":")
	}
	// Each attribute at its first line, with every value its lines carry:
	// an Add per line would check each value against all before it.
	var firsts []int
	for i, f := range fields {
		if !slices.ContainsFunc(firsts, func(k int) bool { return fields[k].norm == f.norm }) {
			firsts = append(firsts, i)
		}
	}
	var vals []string
	valuesOf := func(i int) []string {
		vals = vals[:0]
		for _, g := range fields[i:] {
			if g.norm == fields[i].norm {
				vals = append(vals, g.value)
			}
		}
		return vals
	}
	for _, i := range firsts {
		inPlace = inPlace && !repeats(valuesOf(i))
	}
	if inPlace {
		l := entry.NewLayout(len(firsts), len(fields))
		for _, i := range firsts {
			l.Attr(span(rec, fields[i].name))
			for _, v := range valuesOf(i) {
				l.Value(span(rec, v))
			}
		}
		return entry.Assemble(d, rec, l), nil
	}
	e := entry.New(d)
	for _, i := range firsts {
		e.Add(fields[i].norm, valuesOf(i)...)
	}
	return e, nil
}

// repeats reports whether vals holds two values equal under caseIgnoreMatch,
// or more than maxInPlace values, which are left to Add.
func repeats(vals []string) bool {
	for i, v := range vals {
		if i == maxInPlace || slices.ContainsFunc(vals[:i], func(w string) bool { return entry.EqualValues(v, w) }) {
			return true
		}
	}
	return false
}

// maxInPlace is the most values of one attribute repeats checks pairwise;
// an attribute with more is left to Add, which checks them through a set.
const maxInPlace = 8

// span returns where sub, a substring of rec, lies in it.
func span(rec, sub string) (lo, hi int) {
	if sub == "" {
		return 0, 0
	}
	lo = int(uintptr(unsafe.Pointer(unsafe.StringData(sub))) - uintptr(unsafe.Pointer(unsafe.StringData(rec))))
	return lo, lo + len(sub)
}

func splitLine(line string) (name, value string, err error) {
	i := strings.IndexByte(line, ':')
	if i <= 0 {
		return "", "", fmt.Errorf("%w: missing colon in %q", ErrBadRecord, line)
	}
	if name = strings.TrimSpace(line[:i]); name == "" {
		return "", "", fmt.Errorf("%w: no attribute name in %q", ErrBadRecord, line)
	}
	rest := line[i+1:]
	if strings.HasPrefix(rest, ":") {
		raw, err := base64.StdEncoding.DecodeString(strings.TrimSpace(rest[1:]))
		if err != nil {
			return "", "", fmt.Errorf("%w: bad base64 in %q: %v", ErrBadRecord, line, err)
		}
		return name, string(raw), nil
	}
	return name, strings.TrimLeft(rest, " "), nil
}
