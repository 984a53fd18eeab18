// Package entry models LDAP directory entries: sets of attribute/value pairs
// identified by a distinguished name, together with the matching rules needed
// to evaluate search filters against them.
//
// Attribute type names are case-insensitive. Values are stored as strings;
// matching is case-insensitive and integer-aware (values that parse as
// integers are compared numerically for ordering, mirroring the
// integerOrderingMatch rule used by attributes such as serialNumber).
package entry

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"unicode/utf8"

	"filterdir/internal/dn"
)

// Common attribute type names used throughout the system. Attribute names are
// stored normalized to lower case.
const (
	AttrObjectClass = "objectclass"
)

// ErrNoSuchAttribute reports a modification targeting an absent attribute.
var ErrNoSuchAttribute = errors.New("no such attribute")

// attr is one attribute: its normalized type name and the range of the
// entry's value array its values (in their original case) occupy,
// vals[lo:hi]. An attribute with no values has lo == hi == 0.
type attr struct {
	name   string
	lo, hi int
}

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
	// attrs holds a handful of attributes, so a linear scan beats a map.
	// vals holds every attribute's values, each attribute one range of it,
	// so the whole entry is three allocations — struct, attrs, vals —
	// however it was built. A slot of vals that no attribute's range covers
	// holds "": a value replaced or deleted is reachable from nothing. The
	// exception is an entry Restrict made, which shares its frozen parent's
	// array and covers only some of it.
	attrs  []attr
	vals   []string
	frozen bool
}

// firstAttrs and firstVals size the first allocation of attrs (320 bytes)
// and of vals (192 bytes) for an entry built by Put or Add, each a whole
// size class of the allocator: room for a Table-1 employee's nine
// attributes and twelve values. After that each array doubles.
const (
	firstAttrs = 10
	firstVals  = 12
)

// New creates an entry with the given DN.
func New(d dn.DN) *Entry {
	return &Entry{dn: d}
}

// Assemble builds an entry from already-separated parts, taking ownership of
// vals: attribute i is names[i] with the values vals[ends[i-1]:ends[i]]
// (from 0 for the first). It is Put for every attribute — a repeated name
// replaces the earlier values — without copying a value: vals becomes the
// entry's value array. Wire decoders use it to materialise an entry once.
func Assemble(d dn.DN, names []string, ends []int, vals []string) *Entry {
	// Capped, so that growing the entry reallocates instead of writing past
	// vals into whatever the caller's array holds there.
	e := &Entry{dn: d, attrs: make([]attr, 0, len(names)), vals: vals[:len(vals):len(vals)]}
	lo := 0
	for i, name := range names {
		hi := ends[i]
		n := NormName(name)
		j := e.find(n)
		if j < 0 {
			e.attrs = append(e.attrs, attr{name: n})
			j = len(e.attrs) - 1
		} else {
			e.abandon(j)
		}
		if hi > lo {
			e.attrs[j].lo, e.attrs[j].hi = lo, hi
		}
		lo = hi
	}
	return e
}

// DN returns the entry's distinguished name.
func (e *Entry) DN() dn.DN { return e.dn }

// Freeze marks the entry immutable and returns it. The owner calls it before
// publishing the entry to other holders; there is no way back but Clone.
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

// find returns the position of the attribute with normalized name n, or -1.
func (e *Entry) find(n string) int {
	for i := range e.attrs {
		if e.attrs[i].name == n {
			return i
		}
	}
	return -1
}

// at returns attribute i's values, capped so that an append by whoever
// holds them reallocates instead of writing into the next range.
func (e *Entry) at(i int) []string {
	a := e.attrs[i]
	return e.vals[a.lo:a.hi:a.hi]
}

// values returns the entry's own value slice of the named attribute.
func (e *Entry) values(name string) []string {
	if i := e.find(NormName(name)); i >= 0 {
		return e.at(i)
	}
	return nil
}

// slot returns the position of the attribute with normalized name n,
// appending it with no values when the entry lacks it.
func (e *Entry) slot(n string) int {
	if i := e.find(n); i >= 0 {
		return i
	}
	if len(e.attrs) == cap(e.attrs) {
		e.attrs = slices.Grow(e.attrs, max(len(e.attrs), firstAttrs))
	}
	e.attrs = append(e.attrs, attr{name: n})
	return len(e.attrs) - 1
}

// abandon leaves attribute i with no values. Their slots are cleared, so a
// replaced value — which may alias a whole message body — is reachable from
// nothing, and slots at the end of vals go back to the next append.
func (e *Entry) abandon(i int) {
	a := &e.attrs[i]
	clear(e.vals[a.lo:a.hi])
	if a.hi == len(e.vals) {
		e.vals = e.vals[:a.lo]
	}
	a.lo, a.hi = 0, 0
}

// reserve makes room for n more values at the end of vals. A full array is
// replaced by one at least twice the size of the values still live, which
// move into it in attribute order — attribute last (unless it is -1) at the
// end, so that its range can grow there — and abandoned slots stay behind.
func (e *Entry) reserve(n, last int) {
	if cap(e.vals)-len(e.vals) >= n {
		return
	}
	live := 0
	for _, a := range e.attrs {
		live += a.hi - a.lo
	}
	vals := make([]string, 0, max(firstVals, 2*live, live+n))
	for i := range e.attrs {
		if i != last {
			vals = e.moveTo(vals, i)
		}
	}
	if last >= 0 {
		vals = e.moveTo(vals, last)
	}
	e.vals = vals
}

// moveTo appends attribute i's values to vals and points its range there.
func (e *Entry) moveTo(vals []string, i int) []string {
	a := &e.attrs[i]
	if a.hi > a.lo {
		lo := len(vals)
		vals = append(vals, e.vals[a.lo:a.hi]...)
		a.lo, a.hi = lo, len(vals)
	}
	return vals
}

// Put replaces all values of the named attribute.
func (e *Entry) Put(name string, values ...string) *Entry {
	e.mutable()
	i := e.slot(NormName(name))
	if a := &e.attrs[i]; len(values) <= a.hi-a.lo {
		// The new values fit where the old ones were.
		n := copy(e.vals[a.lo:a.hi], values)
		clear(e.vals[a.lo+n : a.hi])
		if a.hi = a.lo + n; n == 0 {
			a.lo, a.hi = 0, 0
		}
		return e
	}
	e.abandon(i)
	e.reserve(len(values), -1)
	lo := len(e.vals)
	e.vals = append(e.vals, values...)
	e.attrs[i].lo, e.attrs[i].hi = lo, len(e.vals)
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
	i := e.slot(NormName(name))
	if len(values) == 0 {
		return e
	}
	e.toTail(i, len(values))
	a := &e.attrs[i]
	var seen map[string]struct{}
	if len(values) > scanAdd {
		seen = make(map[string]struct{}, a.hi-a.lo+len(values))
		for _, v := range e.vals[a.lo:a.hi] {
			seen[NormValue(v)] = struct{}{}
		}
	}
	for _, v := range values {
		if seen == nil {
			if containsValue(e.vals[a.lo:], v) {
				continue
			}
		} else {
			k := NormValue(v)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
		}
		e.vals = append(e.vals, v)
	}
	if a.hi = len(e.vals); a.hi == a.lo {
		a.lo, a.hi = 0, 0
	}
	return e
}

// toTail makes attribute i's values the last ones in vals, with room for n
// more after them: Add grows a range where it ends.
func (e *Entry) toTail(i, n int) {
	a := &e.attrs[i]
	size := a.hi - a.lo
	switch {
	case size == 0:
		e.reserve(n, -1)
		a.lo, a.hi = len(e.vals), len(e.vals)
	case a.hi == len(e.vals):
		e.reserve(n, i)
	case cap(e.vals)-len(e.vals) >= size+n:
		lo := len(e.vals)
		e.vals = append(e.vals, e.vals[a.lo:a.hi]...)
		clear(e.vals[a.lo:a.hi])
		a.lo, a.hi = lo, len(e.vals)
	default:
		e.reserve(size+n, i)
	}
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
	if a := &e.attrs[i]; len(values) > 0 {
		k := a.lo
		for _, v := range e.vals[a.lo:a.hi] {
			if !containsValue(values, v) {
				e.vals[k] = v
				k++
			}
		}
		clear(e.vals[k:a.hi])
		if k > a.lo {
			a.hi = k
			return nil
		}
	}
	e.abandon(i)
	e.attrs = slices.Delete(e.attrs, i, i+1)
	return nil
}

// Values returns a copy of the values of the named attribute (nil if absent).
func (e *Entry) Values(name string) []string {
	i := e.find(NormName(name))
	if i < 0 {
		return nil
	}
	v := e.at(i)
	out := make([]string, len(v))
	copy(out, v)
	return out
}

// Lookup returns the named attribute's values without copying them, and
// whether the entry carries the attribute at all. The slice is the entry's
// own: the caller must not modify it, and on a mutable entry it holds the
// values only until the entry next changes.
func (e *Entry) Lookup(name string) (values []string, ok bool) {
	if i := e.find(NormName(name)); i >= 0 {
		return e.at(i), true
	}
	return nil, false
}

// First returns the first value of the named attribute, or "" when absent.
func (e *Entry) First(name string) string {
	v := e.values(name)
	if len(v) == 0 {
		return ""
	}
	return v[0]
}

// Has reports whether the entry carries the named attribute.
func (e *Entry) Has(name string) bool {
	return e.find(NormName(name)) >= 0
}

// HasValue reports whether the attribute carries the given value
// (caseIgnoreMatch).
func (e *Entry) HasValue(name, value string) bool {
	return containsValue(e.values(name), value)
}

// AttributeNames returns the attribute names in insertion order.
func (e *Entry) AttributeNames() []string {
	out := make([]string, len(e.attrs))
	for i := range e.attrs {
		out[i] = e.attrs[i].name
	}
	return out
}

// NumAttrs returns the number of attributes; with AttrAt it iterates an
// entry without copying it.
func (e *Entry) NumAttrs() int { return len(e.attrs) }

// AttrAt returns the i-th attribute in insertion order. The values slice is
// the entry's own, as Lookup's is.
func (e *Entry) AttrAt(i int) (name string, values []string) {
	return e.attrs[i].name, e.at(i)
}

// HasObjectClass reports whether the entry belongs to the named class.
func (e *Entry) HasObjectClass(oc string) bool { return e.HasValue(AttrObjectClass, oc) }

// Clone returns a deep, unfrozen copy of the entry: its attribute table and
// one value array holding the live values and nothing else.
func (e *Entry) Clone() *Entry {
	live := 0
	for _, a := range e.attrs {
		live += a.hi - a.lo
	}
	c := &Entry{dn: e.dn, attrs: make([]attr, len(e.attrs)), vals: make([]string, 0, live)}
	for i, a := range e.attrs {
		c.attrs[i].name = a.name
		if a.hi > a.lo {
			lo := len(c.vals)
			c.vals = append(c.vals, e.vals[a.lo:a.hi]...)
			c.attrs[i].lo, c.attrs[i].hi = lo, len(c.vals)
		}
	}
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
	c := &Entry{dn: e.dn, attrs: make([]attr, 0, len(attrs))}
	for _, a := range attrs {
		if i := e.find(NormName(a)); i >= 0 {
			c.Put(a, e.at(i)...)
		}
	}
	return c
}

// Restrict returns a frozen entry at e's DN that carries exactly the named
// attributes (names already normalized, see NormName), each with e's current
// values; a name e does not carry comes out as an attribute with no values.
// e must be frozen: the result shares its value array. This is the shape of
// an attribute-level patch — "these attributes now hold exactly this".
func (e *Entry) Restrict(names []string) *Entry {
	c := &Entry{dn: e.dn, attrs: make([]attr, len(names)), vals: e.vals, frozen: true}
	for i, n := range names {
		c.attrs[i].name = n
		if j := e.find(n); j >= 0 {
			c.attrs[i].lo, c.attrs[i].hi = e.attrs[j].lo, e.attrs[j].hi
		}
	}
	return c
}

// Equal reports deep equality of DN and attributes (value order ignored,
// values compared under caseIgnoreMatch).
func (e *Entry) Equal(o *Entry) bool {
	if e == nil || o == nil {
		return e == o
	}
	if !e.dn.Equal(o.dn) || len(e.attrs) != len(o.attrs) {
		return false
	}
	for i := range e.attrs {
		v := e.at(i)
		j := o.find(e.attrs[i].name)
		if j < 0 || len(o.at(j)) != len(v) {
			return false
		}
		for _, x := range v {
			if !containsValue(o.at(j), x) {
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
	for i, a := range e.attrs {
		if a.hi == a.lo {
			// Only a patch carries one: the attribute's name with no values.
			size += len(a.name) + 4
		}
		for _, v := range e.at(i) {
			size += len(a.name) + len(v) + 4
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
		for _, v := range e.values(n) {
			b.WriteString("; ")
			b.WriteString(n)
			b.WriteString(": ")
			b.WriteString(v)
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
