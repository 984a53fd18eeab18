// Package entry models LDAP directory entries: sets of attribute/value pairs
// identified by a distinguished name, together with the matching rules needed
// to evaluate search filters against them.
//
// Attribute type names are case-insensitive. Values are stored as strings;
// matching is case-insensitive and integer-aware (values that parse as
// integers are compared numerically for ordering, mirroring the
// integerOrderingMatch rule used by attributes such as serialNumber).
//
// An entry holds no pointer per attribute or per value: its names and
// values are bytes of one buffer, and one table of uint32 offsets says
// where each lies in it. Readers reach a value through an Attr view, by
// position; only the accessors that return a []string allocate.
package entry

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"unicode/utf8"
	"unsafe"

	"filterdir/internal/dn"
)

// Common attribute type names used throughout the system. Attribute names are
// stored normalized to lower case.
const (
	AttrObjectClass = "objectclass"
)

// ErrNoSuchAttribute reports a modification targeting an absent attribute.
var ErrNoSuchAttribute = errors.New("no such attribute")

// Entry is a directory entry: a DN plus attributes in insertion order. The
// zero value is an empty entry at the root DN.
//
// Ownership contract: an entry is mutable while one owner holds it and
// frozen from the moment it is published to readers that may share it — a
// store insert, a journal record, a reload snapshot. A frozen entry never
// changes again, so any number of holders may alias it without copying;
// whoever needs to change it takes a Clone. The mutators enforce the
// contract by panicking on a frozen receiver.
type Entry struct {
	dn dn.DN
	// raw holds the entry's normalized names and its values. A byte below
	// len(raw) is never written again, so a value handed out aliases it
	// for good; a mutator appends, and a full buffer is replaced by one
	// holding only the live bytes. A decoded entry's raw is the message
	// body its names and values were read from.
	raw []byte
	// tab locates every name and value in raw. For n attributes:
	//
	//	tab[3i], tab[3i+1]  attribute i's name, raw[tab[3i]:tab[3i+1]]
	//	tab[3i+2]           the end of attribute i's values, counted in
	//	                    values from the first; they start where
	//	                    attribute i-1's end (at 0 for i = 0)
	//	tab[3n:]            one pair lo, hi per value: raw[lo:hi]
	//
	// The element type holds no pointer: the collector never scans it.
	tab    []uint32
	n      int
	frozen bool
}

// firstTab and firstRaw size the first allocation of tab (224 bytes) and of
// raw for an entry built by Put or Add, each a whole size class of the
// allocator: room for a Table-1 employee's nine attributes and twelve
// values, and for its names and values short of a long description. After
// that each grows to twice what is live.
const (
	firstTab = 56
	firstRaw = 256
)

// New creates an entry with the given DN.
func New(d dn.DN) *Entry {
	return &Entry{dn: d}
}

// Layout is an entry's table under construction: a wire decoder that has
// counted an entry's attributes and values writes their ranges in the
// body, attribute by attribute, and Assemble makes it the entry's.
type Layout struct {
	tab  []uint32
	n, v int
}

// NewLayout allocates the table of an entry of the given numbers of
// attributes and values.
func NewLayout(attrs, values int) Layout {
	return Layout{tab: make([]uint32, 3*attrs, 3*attrs+2*values)}
}

// Attr begins the next attribute, named raw[lo:hi].
func (l *Layout) Attr(lo, hi int) {
	l.tab[3*l.n], l.tab[3*l.n+1], l.tab[3*l.n+2] = uint32(lo), uint32(hi), uint32(l.v)
	l.n++
}

// Value adds raw[lo:hi] to the attribute begun last.
func (l *Layout) Value(lo, hi int) {
	l.tab = append(l.tab, uint32(lo), uint32(hi))
	l.v++
	l.tab[3*l.n-1] = uint32(l.v)
}

// Assemble builds an entry over raw from the layout l of its names and
// values there. Decoders use it to materialise an entry once: raw becomes
// the entry's buffer — a wire decoder's is the message body, an LDIF
// reader's the record — and l's table its table. Names already in normal
// form and distinct — every entry a server of this system writes — cost
// nothing more; any other entry is built Put by Put, a repeated name
// replacing the earlier values, into a buffer of its own.
func Assemble(d dn.DN, raw string, l Layout) *Entry {
	// The entry writes no byte below len(raw), and has no room to append
	// in place: raw stays the string it was.
	e := &Entry{dn: d, raw: unsafe.Slice(unsafe.StringData(raw), len(raw)), tab: l.tab, n: l.n}
	// A name is looked for among the earlier ones only when one of them
	// shares its length and first byte, as seen records.
	var seen uint64
	for i := 0; i < e.n; i++ {
		name := e.name(i)
		if !normalName(name) {
			return e.rebuilt()
		}
		bit := uint64(1) << (uint(len(name)) % 64)
		if name != "" {
			bit = uint64(1) << ((uint(len(name)) + 7*uint(name[0])) % 64)
		}
		if seen&bit != 0 && e.find(name) != i {
			return e.rebuilt()
		}
		seen |= bit
	}
	return e
}

// rebuilt is e built again Put by Put in a buffer of its own.
func (e *Entry) rebuilt() *Entry {
	c := New(e.dn)
	for i := 0; i < e.n; i++ {
		a := e.AttrAt(i)
		c.put(NormName(a.name), a.Strings())
	}
	return c
}

// normalName reports whether NormName leaves the ASCII name as it is.
func normalName(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' {
			return false
		}
	}
	return true
}

// DN returns the entry's distinguished name.
func (e *Entry) DN() dn.DN { return e.dn }

// Freeze marks the entry immutable and returns it. The owner calls it before
// publishing the entry to other holders; there is no way back but Clone.
// From then on no byte of its buffer is written.
func (e *Entry) Freeze() *Entry {
	// No store to an entry that is already frozen: other holders may be
	// reading it.
	if !e.frozen {
		e.frozen = true
	}
	return e
}

// Frozen reports whether the entry has been frozen.
func (e *Entry) Frozen() bool { return e.frozen }

// mutable panics when the entry is frozen: a holder that did not clone is
// about to change what every other holder reads.
func (e *Entry) mutable() {
	if e.frozen {
		panic("entry: mutation of frozen entry " + e.dn.String())
	}
}

// SetDN replaces the entry's DN (used by modifyDN processing).
func (e *Entry) SetDN(d dn.DN) {
	e.mutable()
	e.dn = d
}

// Renamed returns the frozen entry e under the DN d. Nothing is copied: the
// two share e's buffer and table, which a frozen entry never writes.
// Renamed panics when e is not frozen.
func (e *Entry) Renamed(d dn.DN) *Entry {
	if !e.frozen {
		panic("entry: rename of mutable entry " + e.dn.String())
	}
	return &Entry{dn: d, raw: e.raw, tab: e.tab, n: e.n, frozen: true}
}

// nameCache holds the normal forms of mixed-case ASCII attribute names, so
// that a name spelled the same way on every entry, as "serialNumber" is, is
// lowered once rather than once per call. It is direct-mapped by a hash of
// the normal form: a name replaces whichever one shares its slot, so the
// table never holds more than len(nameCache) strings, whatever names pass
// through it. Each slot is one atomic pointer, so callers on any goroutine
// share it without a lock; which names it holds changes no result.
var nameCache [256]atomic.Pointer[string]

// NormName normalizes an attribute type name to the form entries store it
// in: surrounding space trimmed, lower case.
func NormName(name string) string {
	// ASCII white space to trim is a byte <= ' ' at an end; a name with a
	// non-ASCII byte is trimmed, and lowered, by the general path below.
	if n := len(name); n > 0 && (name[0] <= ' ' || name[n-1] <= ' ') {
		name = strings.TrimSpace(name)
	}
	upper := false
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= utf8.RuneSelf {
			return strings.ToLower(strings.TrimSpace(name))
		}
		if 'A' <= c && c <= 'Z' {
			upper = true
		}
	}
	if !upper {
		return name
	}
	h := uint32(2166136261) // FNV-1a of the lowered name
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(lower(name[i]))) * 16777619
	}
	slot := &nameCache[h%uint32(len(nameCache))]
	if n := slot.Load(); n != nil && equalLower(name, *n) {
		return *n
	}
	n := strings.ToLower(name)
	slot.Store(&n)
	return n
}

// equalLower reports whether the ASCII string s, lower-cased, is n.
func equalLower(s, n string) bool {
	if len(s) != len(n) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if lower(s[i]) != n[i] {
			return false
		}
	}
	return true
}

// str is the string b's bytes stand for, without a copy: raw's bytes are
// never written again (see Entry.raw).
func str(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// name returns attribute i's normalized name.
func (e *Entry) name(i int) string {
	return str(e.raw[e.tab[3*i]:e.tab[3*i+1]])
}

// span returns the range of values attribute i holds, counted from the
// first value of the entry.
func (e *Entry) span(i int) (lo, hi int) {
	if i > 0 {
		lo = int(e.tab[3*i-1])
	}
	return lo, int(e.tab[3*i+2])
}

// find returns the position of the attribute with normalized name n, or -1.
func (e *Entry) find(n string) int {
	for i := 0; i < e.n; i++ {
		if e.name(i) == n {
			return i
		}
	}
	return -1
}

// Attr is a view of one attribute of an entry: its normalized name and its
// values, read by position. It is a value, so reading one allocates
// nothing. A string it returns is the entry's own bytes and stays valid for
// good; on a mutable entry the view itself describes the attribute only
// until the entry next changes.
type Attr struct {
	name string
	raw  []byte
	vals []uint32
}

// Name returns the attribute's normalized type name.
func (a Attr) Name() string { return a.name }

// Len returns the number of values.
func (a Attr) Len() int { return len(a.vals) / 2 }

// At returns the i-th value, in its original case.
func (a Attr) At(i int) string { return str(a.raw[a.vals[2*i]:a.vals[2*i+1]]) }

// Strings returns a copy of the values. It allocates: hot paths read At.
func (a Attr) Strings() []string {
	if a.Len() == 0 {
		return nil
	}
	out := make([]string, a.Len())
	for i := range out {
		out[i] = a.At(i)
	}
	return out
}

// Equal reports whether both views hold the same values byte for byte, in
// the same order.
func (a Attr) Equal(o Attr) bool {
	if a.Len() != o.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != o.At(i) {
			return false
		}
	}
	return true
}

// Contains reports whether the attribute holds a value equal to v under
// caseIgnoreMatch (EqualValues).
func (a Attr) Contains(v string) bool {
	for i := 0; i < a.Len(); i++ {
		if EqualValues(a.At(i), v) {
			return true
		}
	}
	return false
}

// live returns how many bytes of raw the names and values cover.
func (e *Entry) live() int {
	size := 0
	for i := 0; i < e.n; i++ {
		size += int(e.tab[3*i+1] - e.tab[3*i])
	}
	for k := 3 * e.n; k < len(e.tab); k += 2 {
		size += int(e.tab[k+1] - e.tab[k])
	}
	return size
}

// reserve makes room for n more bytes at the end of raw. A full buffer is
// replaced by one at least twice the size of the bytes still live, which
// move into it, names first; dead bytes stay behind. The old buffer is not
// written: the values handed out of it stay what they were.
func (e *Entry) reserve(n int) {
	if cap(e.raw)-len(e.raw) >= n {
		return
	}
	live := e.live()
	if live+n > math.MaxUint32 {
		panic("entry: names and values past 4 GiB")
	}
	e.raw = e.moveTo(make([]byte, 0, max(firstRaw, 2*live+n)))
}

// moveTo copies the live names and values into raw, names first, pointing
// the table at the copies, and returns raw.
func (e *Entry) moveTo(raw []byte) []byte {
	for i := 0; i < e.n; i++ {
		raw = e.moveRange(raw, 3*i)
	}
	for k := 3 * e.n; k < len(e.tab); k += 2 {
		raw = e.moveRange(raw, k)
	}
	return raw
}

// moveRange appends the bytes of the range tab[k], tab[k+1] to raw and
// points the range there.
func (e *Entry) moveRange(raw []byte, k int) []byte {
	lo := len(raw)
	raw = append(raw, e.raw[e.tab[k]:e.tab[k+1]]...)
	e.tab[k], e.tab[k+1] = uint32(lo), uint32(len(raw))
	return raw
}

// appendBytes appends s to raw, which reserve has made room for, and
// returns its range.
func (e *Entry) appendBytes(s string) (lo, hi uint32) {
	lo = uint32(len(e.raw))
	e.raw = append(e.raw, s...)
	return lo, uint32(len(e.raw))
}

// growTab makes room for n more words in the table, doubling it at least.
func (e *Entry) growTab(n int) {
	if cap(e.tab)-len(e.tab) < n {
		tab := make([]uint32, len(e.tab), len(e.tab)+max(n, len(e.tab), firstTab-len(e.tab)))
		copy(tab, e.tab)
		e.tab = tab
	}
}

// slot returns the position of the attribute with normalized name n,
// appending it with no values when the entry lacks it; raw must have room
// for the name.
func (e *Entry) slot(n string) int {
	if i := e.find(n); i >= 0 {
		return i
	}
	e.growTab(3)
	lo, hi := e.appendBytes(n)
	total := uint32(0)
	if e.n > 0 {
		total = e.tab[3*e.n-1]
	}
	e.tab = slices.Insert(e.tab, 3*e.n, lo, hi, total)
	e.n++
	return e.n - 1
}

// resize makes attribute i's values count values long, dropping or adding
// pairs at its end; an added pair is left for the caller to fill.
func (e *Entry) resize(i, count int) {
	lo, hi := e.span(i)
	delta := count - (hi - lo)
	end := 3*e.n + 2*hi
	switch {
	case delta > 0:
		e.growTab(2 * delta)
		n := len(e.tab)
		e.tab = e.tab[:n+2*delta]
		copy(e.tab[end+2*delta:], e.tab[end:n])
	case delta < 0:
		e.tab = slices.Delete(e.tab, end+2*delta, end)
	}
	for j := i; j < e.n; j++ {
		e.tab[3*j+2] = uint32(int(e.tab[3*j+2]) + delta)
	}
}

// put replaces the values of the attribute with normalized name n by
// values, copying their bytes into raw.
func (e *Entry) put(n string, values []string) {
	size := len(n)
	for _, v := range values {
		size += len(v)
	}
	e.reserve(size)
	i := e.slot(n)
	e.resize(i, len(values))
	lo, _ := e.span(i)
	p := 3*e.n + 2*lo
	for k, v := range values {
		e.tab[p+2*k], e.tab[p+2*k+1] = e.appendBytes(v)
	}
}

// Put replaces all values of the named attribute.
func (e *Entry) Put(name string, values ...string) *Entry {
	e.mutable()
	e.put(NormName(name), values)
	return e
}

// scanAdd is the most values Add checks for duplicates by scanning the
// attribute's values once each; more are checked through a set of normal
// forms, so an Add costs time linear in the values involved.
const scanAdd = 8

// Add appends values to the named attribute, skipping duplicates
// (caseIgnoreMatch, see EqualValues).
func (e *Entry) Add(name string, values ...string) *Entry {
	e.mutable()
	n := NormName(name)
	size := len(n)
	for _, v := range values {
		size += len(v)
	}
	e.reserve(size)
	i := e.slot(n)
	if len(values) == 0 {
		return e
	}
	var seen map[string]struct{}
	if len(values) > scanAdd {
		a := e.AttrAt(i)
		seen = make(map[string]struct{}, a.Len()+len(values))
		for k := 0; k < a.Len(); k++ {
			seen[NormValue(a.At(k))] = struct{}{}
		}
	}
	// The new values' ranges gather here, then go in after the
	// attribute's own.
	var buf [2 * scanAdd]uint32
	added := buf[:0]
	for _, v := range values {
		if seen == nil {
			if e.AttrAt(i).Contains(v) || (Attr{raw: e.raw, vals: added}).Contains(v) {
				continue
			}
		} else {
			k := NormValue(v)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
		}
		lo, hi := e.appendBytes(v)
		added = append(added, lo, hi)
	}
	lo, hi := e.span(i)
	e.resize(i, hi-lo+len(added)/2)
	copy(e.tab[3*e.n+2*hi:], added)
	return e
}

// DeleteValues removes specific values (caseIgnoreMatch) from an attribute;
// removing the last value removes the attribute. If values is empty the whole
// attribute is removed. Returns ErrNoSuchAttribute when the attribute is
// absent.
func (e *Entry) DeleteValues(name string, values ...string) error {
	e.mutable()
	n := NormName(name)
	i := e.find(n)
	if i < 0 {
		return fmt.Errorf("%w: %s", ErrNoSuchAttribute, n)
	}
	kept := 0
	if len(values) > 0 {
		a := e.AttrAt(i)
		for k := 0; k < a.Len(); k++ {
			if !containsValue(values, a.At(k)) {
				a.vals[2*kept], a.vals[2*kept+1] = a.vals[2*k], a.vals[2*k+1]
				kept++
			}
		}
	}
	e.resize(i, kept)
	if kept == 0 {
		e.tab = slices.Delete(e.tab, 3*i, 3*i+3)
		e.n--
	}
	return nil
}

// Values returns a copy of the values of the named attribute (nil if absent).
// It allocates; hot paths read Lookup's view.
func (e *Entry) Values(name string) []string {
	a, _ := e.Lookup(name)
	return a.Strings()
}

// Lookup returns a view of the named attribute, and whether the entry
// carries the attribute at all.
func (e *Entry) Lookup(name string) (Attr, bool) {
	if i := e.find(NormName(name)); i >= 0 {
		return e.AttrAt(i), true
	}
	return Attr{}, false
}

// First returns the first value of the named attribute, or "" when absent.
func (e *Entry) First(name string) string {
	if a, _ := e.Lookup(name); a.Len() > 0 {
		return a.At(0)
	}
	return ""
}

// Has reports whether the entry carries the named attribute.
func (e *Entry) Has(name string) bool {
	return e.find(NormName(name)) >= 0
}

// HasValue reports whether the attribute carries the given value
// (caseIgnoreMatch).
func (e *Entry) HasValue(name, value string) bool {
	a, _ := e.Lookup(name)
	return a.Contains(value)
}

// AttributeNames returns the attribute names in insertion order.
func (e *Entry) AttributeNames() []string {
	out := make([]string, e.n)
	for i := range out {
		out[i] = e.name(i)
	}
	return out
}

// NumAttrs returns the number of attributes; with AttrAt it iterates an
// entry without copying it.
func (e *Entry) NumAttrs() int { return e.n }

// AttrAt returns a view of the i-th attribute in insertion order.
func (e *Entry) AttrAt(i int) Attr {
	lo, hi := e.span(i)
	base := 3 * e.n
	return Attr{name: e.name(i), raw: e.raw, vals: e.tab[base+2*lo : base+2*hi : base+2*hi]}
}

// HasObjectClass reports whether the entry belongs to the named class.
func (e *Entry) HasObjectClass(oc string) bool { return e.HasValue(AttrObjectClass, oc) }

// Clone returns a deep, unfrozen copy of the entry: its table, and one
// buffer holding the live names and values and nothing else — a clone of a
// decoded entry does not keep the message body alive.
func (e *Entry) Clone() *Entry {
	return e.CloneRoom(0, 0, 0)
}

// CloneRoom is Clone with room to grow in place: attrs more attributes,
// values more values and bytes more bytes of names and values go in
// without the table or the buffer being replaced. A modify that copies the
// entry it changes passes what its mods add, so the entry is copied once.
func (e *Entry) CloneRoom(attrs, values, bytes int) *Entry {
	c := &Entry{dn: e.dn, tab: make([]uint32, len(e.tab), len(e.tab)+3*attrs+2*values), n: e.n, raw: e.raw}
	copy(c.tab, e.tab)
	c.raw = c.moveTo(make([]byte, 0, e.live()+bytes))
	return c
}

// Select returns the entry restricted to the requested attributes. The
// special attribute "*" (or an empty list) selects all user attributes: a
// frozen entry is then returned as it is — nobody can change it, so nobody
// needs a copy — and a mutable one as a clone. A proper subset is always a
// new, mutable entry.
func (e *Entry) Select(attrs []string) *Entry {
	all := len(attrs) == 0
	for _, a := range attrs {
		if a == "*" {
			all = true
		}
	}
	if all {
		if e.frozen {
			return e
		}
		return e.Clone()
	}
	c := New(e.dn)
	for _, name := range attrs {
		if a, ok := e.Lookup(name); ok {
			c.put(a.name, a.Strings())
		}
	}
	return c
}

// Restrict returns a frozen entry at e's DN that carries exactly the named
// attributes (names already normalized, see NormName), each with e's current
// values; a name e does not carry comes out as an attribute with no values.
// e must be frozen: when it carries every name the result shares its buffer.
// This is the shape of an attribute-level patch — "these attributes now hold
// exactly this".
func (e *Entry) Restrict(names []string) *Entry {
	size := 3 * len(names)
	for _, n := range names {
		a, ok := e.Lookup(n)
		if !ok {
			// The name's bytes are not in e's buffer: the patch gets one.
			c := New(e.dn)
			for _, n := range names {
				a, _ := e.Lookup(n)
				c.put(n, a.Strings())
			}
			return c.Freeze()
		}
		size += len(a.vals)
	}
	c := &Entry{dn: e.dn, raw: e.raw, tab: make([]uint32, 3*len(names), size), n: len(names), frozen: true}
	for i, n := range names {
		j := e.find(n)
		a := e.AttrAt(j)
		c.tab = append(c.tab, a.vals...)
		c.tab[3*i], c.tab[3*i+1], c.tab[3*i+2] = e.tab[3*j], e.tab[3*j+1], uint32((len(c.tab)-3*len(names))/2)
	}
	return c
}

// Equal reports deep equality of DN and attributes (value order ignored,
// values compared under caseIgnoreMatch).
func (e *Entry) Equal(o *Entry) bool {
	if e == nil || o == nil {
		return e == o
	}
	if !e.dn.Equal(o.dn) || e.n != o.n {
		return false
	}
	for i := 0; i < e.n; i++ {
		a := e.AttrAt(i)
		j := o.find(a.name)
		if j < 0 {
			return false
		}
		b := o.AttrAt(j)
		if a.Len() != b.Len() {
			return false
		}
		for k := 0; k < a.Len(); k++ {
			if !b.Contains(a.At(k)) {
				return false
			}
		}
	}
	return true
}

// ByteSize estimates the wire size of the entry in bytes: DN plus each
// attribute name and value, with a small per-element framing overhead. Used
// for update-traffic accounting.
func (e *Entry) ByteSize() int {
	size := len(e.dn.String()) + 8
	for i := 0; i < e.n; i++ {
		a := e.AttrAt(i)
		if a.Len() == 0 {
			// Only a patch carries one: the attribute's name with no values.
			size += len(a.name) + 4
		}
		for k := 0; k < a.Len(); k++ {
			size += len(a.name) + len(a.At(k)) + 4
		}
	}
	return size
}

// String renders the entry in a compact LDIF-like single-line form, primarily
// for tests and debugging.
func (e *Entry) String() string {
	var b strings.Builder
	b.WriteString("dn: ")
	b.WriteString(e.dn.String())
	names := e.AttributeNames()
	sort.Strings(names)
	for _, n := range names {
		a, _ := e.Lookup(n)
		for k := 0; k < a.Len(); k++ {
			b.WriteString("; ")
			b.WriteString(n)
			b.WriteString(": ")
			b.WriteString(a.At(k))
		}
	}
	return b.String()
}

// containsValue reports whether vals holds a value equal to v under
// caseIgnoreMatch (EqualValues).
func containsValue(vals []string, v string) bool {
	for _, x := range vals {
		if EqualValues(x, v) {
			return true
		}
	}
	return false
}
