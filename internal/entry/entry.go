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
	"sort"
	"strings"

	"filterdir/internal/dn"
)

// Common attribute type names used throughout the system. Attribute names are
// stored normalized to lower case.
const (
	AttrObjectClass = "objectclass"
)

// ErrNoSuchAttribute reports a modification targeting an absent attribute.
var ErrNoSuchAttribute = errors.New("no such attribute")

// attr is one attribute: its normalized type name and its values in their
// original case.
type attr struct {
	name string
	vals []string
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
	// attrs holds a handful of attributes, so a linear scan beats a map and
	// the whole entry is three allocations (struct, attrs, one backing array
	// for every value) instead of a dozen.
	attrs  []attr
	frozen bool
}

// New creates an entry with the given DN.
func New(d dn.DN) *Entry {
	return &Entry{dn: d}
}

// Assemble builds an entry from already-separated parts, taking ownership of
// vals: attribute i is names[i] with the values vals[ends[i-1]:ends[i]]
// (from 0 for the first). It is Put for every attribute — a repeated name
// replaces the earlier values — without copying a value. Wire decoders use
// it to materialise an entry once.
func Assemble(d dn.DN, names []string, ends []int, vals []string) *Entry {
	e := &Entry{dn: d, attrs: make([]attr, 0, len(names))}
	lo := 0
	for i, name := range names {
		hi := ends[i]
		// Capped, so an Add on one attribute cannot grow into the next.
		v := vals[lo:hi:hi]
		lo = hi
		n := NormName(name)
		if j := e.find(n); j >= 0 {
			e.attrs[j].vals = v
			continue
		}
		e.attrs = append(e.attrs, attr{name: n, vals: v})
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

// NormName normalizes an attribute type name to the form entries store it in.
func NormName(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// find returns the position of the attribute with normalized name n, or -1.
func (e *Entry) find(n string) int {
	for i := range e.attrs {
		if e.attrs[i].name == n {
			return i
		}
	}
	return -1
}

// values returns the entry's own value slice of the named attribute.
func (e *Entry) values(name string) []string {
	if i := e.find(NormName(name)); i >= 0 {
		return e.attrs[i].vals
	}
	return nil
}

// Put replaces all values of the named attribute.
func (e *Entry) Put(name string, values ...string) *Entry {
	e.mutable()
	n := NormName(name)
	cp := make([]string, len(values))
	copy(cp, values)
	if i := e.find(n); i >= 0 {
		e.attrs[i].vals = cp
	} else {
		e.attrs = append(e.attrs, attr{name: n, vals: cp})
	}
	return e
}

// Add appends values to the named attribute, skipping duplicates
// (caseIgnoreMatch, see EqualValues).
func (e *Entry) Add(name string, values ...string) *Entry {
	e.mutable()
	n := NormName(name)
	i := e.find(n)
	if i < 0 {
		e.attrs = append(e.attrs, attr{name: n})
		i = len(e.attrs) - 1
	}
	cur := e.attrs[i].vals
	for _, v := range values {
		if !containsValue(cur, v) {
			cur = append(cur, v)
		}
	}
	e.attrs[i].vals = cur
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
	if len(values) == 0 {
		e.removeAttr(i)
		return nil
	}
	cur := e.attrs[i].vals
	kept := cur[:0]
	for _, v := range cur {
		if !containsValue(values, v) {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		e.removeAttr(i)
		return nil
	}
	e.attrs[i].vals = kept
	return nil
}

func (e *Entry) removeAttr(i int) {
	e.attrs = append(e.attrs[:i], e.attrs[i+1:]...)
}

// Values returns a copy of the values of the named attribute (nil if absent).
func (e *Entry) Values(name string) []string {
	i := e.find(NormName(name))
	if i < 0 {
		return nil
	}
	out := make([]string, len(e.attrs[i].vals))
	copy(out, e.attrs[i].vals)
	return out
}

// Lookup returns the named attribute's values without copying them, and
// whether the entry carries the attribute at all. The slice is the entry's
// own: the caller must not modify it.
func (e *Entry) Lookup(name string) (values []string, ok bool) {
	if i := e.find(NormName(name)); i >= 0 {
		return e.attrs[i].vals, true
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
// the entry's own: the caller must not modify it.
func (e *Entry) AttrAt(i int) (name string, values []string) {
	return e.attrs[i].name, e.attrs[i].vals
}

// HasObjectClass reports whether the entry belongs to the named class.
func (e *Entry) HasObjectClass(oc string) bool { return e.HasValue(AttrObjectClass, oc) }

// Clone returns a deep, unfrozen copy of the entry.
func (e *Entry) Clone() *Entry {
	total := 0
	for i := range e.attrs {
		total += len(e.attrs[i].vals)
	}
	c := &Entry{dn: e.dn, attrs: make([]attr, len(e.attrs))}
	backing := make([]string, total)
	lo := 0
	for i := range e.attrs {
		hi := lo + copy(backing[lo:], e.attrs[i].vals)
		c.attrs[i] = attr{name: e.attrs[i].name, vals: backing[lo:hi:hi]}
		lo = hi
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
	c := New(e.dn)
	for _, a := range attrs {
		if i := e.find(NormName(a)); i >= 0 {
			c.Put(a, e.attrs[i].vals...)
		}
	}
	return c
}

// Restrict returns a frozen entry at e's DN that carries exactly the named
// attributes (names already normalized, see NormName), each with e's current
// values; a name e does not carry comes out as an attribute with no values.
// e must be frozen: the result shares its value slices. This is the shape of
// an attribute-level patch — "these attributes now hold exactly this".
func (e *Entry) Restrict(names []string) *Entry {
	c := &Entry{dn: e.dn, attrs: make([]attr, len(names)), frozen: true}
	for i, n := range names {
		c.attrs[i].name = n
		if j := e.find(n); j >= 0 {
			c.attrs[i].vals = e.attrs[j].vals
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
		v := e.attrs[i].vals
		j := o.find(e.attrs[i].name)
		if j < 0 || len(o.attrs[j].vals) != len(v) {
			return false
		}
		for _, x := range v {
			if !containsValue(o.attrs[j].vals, x) {
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
	for i := range e.attrs {
		if len(e.attrs[i].vals) == 0 {
			// Only a patch carries one: the attribute's name with no values.
			size += len(e.attrs[i].name) + 4
		}
		for _, v := range e.attrs[i].vals {
			size += len(e.attrs[i].name) + len(v) + 4
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
