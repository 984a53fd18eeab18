// Package ldif reads and writes directory entries in LDIF (RFC 2849
// subset): one record per entry, "attr: value" lines, base64 encoding for
// unsafe values, line folding on write, comments and version lines ignored
// on read.
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
		name, vals := e.AttrAt(i)
		for _, v := range vals {
			b = appendLine(b, name, v)
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
	cur    joiner // the logical line being read
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
	lines, err := r.nextRecordLines()
	if err != nil {
		return nil, err
	}
	return buildEntry(lines)
}

// nextRecordLines returns the next record's logical lines, folding resolved,
// or io.EOF.
func (r *Reader) nextRecordLines() ([]string, error) {
	var logical []string
	for r.sc.Scan() {
		r.lineNo++
		line := bytes.TrimRight(r.sc.Bytes(), "\r")
		switch {
		case len(line) == 0:
			if r.cur.used > 0 {
				return append(logical, r.cur.line()), nil
			}
		case line[0] == '#':
		case r.cur.used == 0 && len(logical) == 0 && bytes.HasPrefix(line, []byte("version:")):
		case line[0] == ' ':
			if r.cur.used == 0 {
				return nil, fmt.Errorf("%w: continuation at line %d with no preceding line", ErrBadRecord, r.lineNo)
			}
			r.cur.add(line[1:])
		default:
			if r.cur.used > 0 {
				logical = append(logical, r.cur.line())
			}
			r.cur.add(line)
		}
	}
	if r.cur.used == 0 {
		if err := r.sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	return append(logical, r.cur.line()), nil
}

// joiner assembles a logical line from the pieces it is folded into: the
// pieces go into chunks of 512 bytes, then of twice the size of the one
// before, which are never copied and are kept for the next line, and the
// line is then copied once into a string of its exact length. So a line of n
// bytes costs time linear in n and at most about 3n bytes of allocation
// however it is folded — a buffer doubling as it grows could cost 4n.
type joiner struct {
	chunks [][]byte // chunks[:used] hold the line, the rest are empty
	used   int
	n      int
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

// line returns the line joined so far and starts the next.
func (j *joiner) line() string {
	var sb strings.Builder
	sb.Grow(j.n)
	for i := range j.used {
		sb.Write(j.chunks[i])
		j.chunks[i] = j.chunks[i][:0]
	}
	j.used, j.n = 0, 0
	return sb.String()
}

func buildEntry(lines []string) (*entry.Entry, error) {
	name, value, err := splitLine(lines[0])
	if err != nil {
		return nil, err
	}
	if !strings.EqualFold(name, "dn") {
		return nil, fmt.Errorf("%w: record must start with dn:, got %q", ErrBadRecord, lines[0])
	}
	d, err := dn.Parse(value)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	type field struct{ name, value string }
	fields := make([]field, len(lines)-1)
	for i, line := range lines[1:] {
		name, value, err := splitLine(line)
		if err != nil {
			return nil, err
		}
		fields[i] = field{entry.NormName(name), value}
	}
	// One Add per attribute, at its first line, with every value its lines
	// carry: an Add per line would check each value against all before it.
	e := entry.New(d)
	var vals []string
	for i, f := range fields {
		if e.Has(f.name) {
			continue
		}
		vals = vals[:0]
		for _, g := range fields[i:] {
			if g.name == f.name {
				vals = append(vals, g.value)
			}
		}
		e.Add(f.name, vals...)
	}
	return e, nil
}

func splitLine(line string) (name, value string, err error) {
	i := strings.IndexByte(line, ':')
	if i <= 0 {
		return "", "", fmt.Errorf("%w: missing colon in %q", ErrBadRecord, line)
	}
	name = strings.TrimSpace(line[:i])
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
