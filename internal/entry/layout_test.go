package entry

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"filterdir/internal/dn"
)

// refEntry is the reference model the buffer-and-table layout is held to: every
// attribute owns its values, each operation rebuilds what it changes, and
// names and values are compared through the reference normal forms.
type refEntry struct {
	dn     dn.DN
	attrs  []refAttr
	frozen bool
}

type refAttr struct {
	name string
	vals []string
}

func refNormName(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

func (r *refEntry) find(n string) int {
	for i := range r.attrs {
		if r.attrs[i].name == n {
			return i
		}
	}
	return -1
}

func (r *refEntry) clone() *refEntry {
	c := &refEntry{dn: r.dn}
	for _, a := range r.attrs {
		c.attrs = append(c.attrs, refAttr{a.name, slices.Clone(a.vals)})
	}
	return c
}

func (r *refEntry) put(name string, vals []string) {
	n := refNormName(name)
	if i := r.find(n); i >= 0 {
		r.attrs[i].vals = slices.Clone(vals)
		return
	}
	r.attrs = append(r.attrs, refAttr{n, slices.Clone(vals)})
}

func refHas(vals []string, v string) bool {
	for _, x := range vals {
		if refNormValue(x) == refNormValue(v) {
			return true
		}
	}
	return false
}

func (r *refEntry) add(name string, vals []string) {
	n := refNormName(name)
	i := r.find(n)
	if i < 0 {
		r.attrs = append(r.attrs, refAttr{name: n})
		i = len(r.attrs) - 1
	}
	for _, v := range vals {
		if !refHas(r.attrs[i].vals, v) {
			r.attrs[i].vals = append(r.attrs[i].vals, v)
		}
	}
}

func (r *refEntry) deleteValues(name string, vals []string) bool {
	i := r.find(refNormName(name))
	if i < 0 {
		return false
	}
	var kept []string
	if len(vals) > 0 {
		for _, v := range r.attrs[i].vals {
			if !refHas(vals, v) {
				kept = append(kept, v)
			}
		}
	}
	if len(kept) == 0 {
		r.attrs = slices.Delete(r.attrs, i, i+1)
	} else {
		r.attrs[i].vals = kept
	}
	return true
}

func (r *refEntry) String() string {
	parts := []string{"dn: " + r.dn.String()}
	sorted := slices.Clone(r.attrs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for _, a := range sorted {
		for _, v := range a.vals {
			parts = append(parts, a.name+": "+v)
		}
	}
	return strings.Join(parts, "; ")
}

// Pools the operations draw names and values from: one attribute under
// several spellings, and values equal under caseIgnoreMatch but not byte
// for byte.
var (
	opNames  = []string{"cn", "CN", " cn ", "sn", "mail", "objectClass", "objectclass", "description", "serialNumber", "telephoneNumber", "uid"}
	opValues = []string{"a", "A", " a ", "b", "B", "", "x y", "X  Y", "person", "Person", "0456", strings.Repeat("v", 300), "c", "d"}
)

// checkLayout compares every accessor of e with the model, then holds the
// layout to its invariants: a table of 3 words per attribute and 2 per
// value, ends that never fall, names in normal form, every range inside
// raw, and — unless e shares a frozen parent's buffer (Restrict) — no byte
// in two ranges. A clone holds exactly the live bytes.
func checkLayout(t *testing.T, step string, e *Entry, r *refEntry, shared bool) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s\n entry %s\n model %s", step, fmt.Sprintf(format, args...), e, r)
	}
	if !e.DN().Equal(r.dn) || e.Frozen() != r.frozen || e.NumAttrs() != len(r.attrs) {
		fail("dn %q frozen %v attrs %d, model %q %v %d", e.DN().String(), e.Frozen(), e.NumAttrs(), r.dn.String(), r.frozen, len(r.attrs))
	}
	names := e.AttributeNames()
	for i, a := range r.attrs {
		got := e.AttrAt(i)
		if got.Name() != a.name || names[i] != a.name || !slices.Equal(got.Strings(), a.vals) {
			fail("AttrAt(%d) = %q %q, model %q %q", i, got.Name(), got.Strings(), a.name, a.vals)
		}
	}
	for _, name := range append(opNames, "absent") {
		n := refNormName(name)
		i := r.find(n)
		var want []string
		if i >= 0 {
			want = r.attrs[i].vals
		}
		got, ok := e.Lookup(name)
		if ok != (i >= 0) || !slices.Equal(got.Strings(), want) || !slices.Equal(e.Values(name), want) || e.Has(name) != ok {
			fail("Lookup(%q) = %q %v, Values %q, model %q", name, got.Strings(), ok, e.Values(name), want)
		}
		first := ""
		if len(want) > 0 {
			first = want[0]
		}
		if e.First(name) != first {
			fail("First(%q) = %q, model %q", name, e.First(name), first)
		}
		for _, v := range opValues {
			if e.HasValue(name, v) != refHas(want, v) {
				fail("HasValue(%q, %q) = %v", name, v, !refHas(want, v))
			}
		}
	}
	if e.String() != r.String() {
		fail("String differs")
	}
	c := e.Clone()
	if !c.Equal(e) || c.String() != e.String() || c.Frozen() {
		fail("Clone differs: %s", c)
	}
	if live := c.live(); len(c.raw) != live || cap(c.raw) != live {
		fail("clone holds %d bytes (capacity %d) for %d live", len(c.raw), cap(c.raw), live)
	}
	if msg := badLayout(e, shared); msg != "" {
		fail("%s", msg)
	}
}

// badLayout describes how e's table breaks the layout, "" when it does not.
func badLayout(e *Entry, shared bool) string {
	total := 0
	if e.n > 0 {
		total = int(e.tab[3*e.n-1])
	}
	if len(e.tab) != 3*e.n+2*total {
		return fmt.Sprintf("table of %d words for %d attributes and %d values", len(e.tab), e.n, total)
	}
	var ranges [][2]uint32
	for i := 0; i < e.n; i++ {
		if lo, hi := e.span(i); lo > hi {
			return fmt.Sprintf("attribute %d ends at %d before it starts at %d", i, hi, lo)
		}
		if n := e.name(i); n != NormName(n) {
			return fmt.Sprintf("name %q is not in normal form", n)
		}
		ranges = append(ranges, [2]uint32{e.tab[3*i], e.tab[3*i+1]})
	}
	for k := 3 * e.n; k < len(e.tab); k += 2 {
		ranges = append(ranges, [2]uint32{e.tab[k], e.tab[k+1]})
	}
	covered := make([]bool, len(e.raw))
	for _, r := range ranges {
		if r[0] > r[1] || int(r[1]) > len(e.raw) {
			return fmt.Sprintf("range [%d, %d) outside %d bytes", r[0], r[1], len(e.raw))
		}
		for k := r[0]; k < r[1] && !shared; k++ {
			if covered[k] {
				return fmt.Sprintf("byte %d is in two ranges", k)
			}
			covered[k] = true
		}
	}
	return ""
}

// wire builds an entry as a decoder does: attribute i is names[i] with the
// values vals[ends[i-1]:ends[i]] (from 0 for the first), all of them ranges
// of one body, which the entry takes.
func wire(d dn.DN, names []string, ends []int, vals []string) *Entry {
	var body []byte
	l := NewLayout(len(names), len(vals))
	lo := 0
	for i, n := range names {
		body = append(body, n...)
		l.Attr(len(body)-len(n), len(body))
		for _, v := range vals[lo:ends[i]] {
			body = append(body, v...)
			l.Value(len(body)-len(v), len(body))
		}
		lo = ends[i]
	}
	return Assemble(d, string(body), l)
}

// runEntryOps interprets ops as a sequence of operations on one entry and
// its model, checking them against each other after every step. Each
// operation reads a few bytes: what to do, an attribute name and values
// from the pools. A mutator on a frozen entry must panic and change
// nothing. Every frozen entry met on the way is checked again at the end:
// nothing done to a clone, a selection or a restriction of it reaches it.
func runEntryOps(t *testing.T, ops []byte) {
	d := dn.MustParse("cn=x,o=xyz")
	e, r := New(d), &refEntry{dn: d}
	shared := false
	type kept struct {
		e      *Entry
		r      *refEntry
		shared bool
	}
	var frozen []kept
	keep := func() {
		if e.Frozen() {
			c := r.clone()
			c.frozen = true
			frozen = append(frozen, kept{e, c, shared})
		}
	}
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	pick := func() []string {
		vals := make([]string, next()%5)
		for i := range vals {
			vals[i] = opValues[next()%len(opValues)]
		}
		return vals
	}
	mutate := func(step string, apply func()) bool {
		if !e.Frozen() {
			apply()
			return true
		}
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on a frozen entry did not panic", step)
			}
		}()
		apply()
		return false
	}
	for step := 0; len(ops) > 0; step++ {
		op, name := next()%9, opNames[next()%len(opNames)]
		var desc string
		switch op {
		case 0, 1:
			vals := pick()
			desc = fmt.Sprintf("Put(%q, %q)", name, vals)
			if mutate(desc, func() { e.Put(name, vals...) }) {
				r.put(name, vals)
			}
		case 2, 3:
			vals := pick()
			desc = fmt.Sprintf("Add(%q, %q)", name, vals)
			if mutate(desc, func() { e.Add(name, vals...) }) {
				r.add(name, vals)
			}
		case 4:
			vals := pick()
			desc = fmt.Sprintf("DeleteValues(%q, %q)", name, vals)
			var err error
			if mutate(desc, func() { err = e.DeleteValues(name, vals...) }) {
				if ok := r.deleteValues(name, vals); ok != (err == nil) {
					t.Fatalf("%s: err %v, model found the attribute: %v", desc, err, ok)
				}
			}
		case 5:
			desc = "Clone"
			keep()
			e, r, shared = e.Clone(), r.clone(), false
		case 6:
			list := []string{name}
			if next()%3 == 0 {
				list = append(list, "*")
			} else {
				list = append(list, opNames[next()%len(opNames)])
			}
			desc = fmt.Sprintf("Select(%q)", list)
			keep()
			sel := e.Select(list)
			if slices.Contains(list, "*") {
				if e.Frozen() != (sel == e) {
					t.Fatalf("%s: frozen %v, returned the receiver %v", desc, e.Frozen(), sel == e)
				}
				if !e.Frozen() {
					r, shared = r.clone(), false
				}
			} else {
				sub := &refEntry{dn: r.dn}
				for _, a := range list {
					if i := r.find(refNormName(a)); i >= 0 {
						sub.put(a, r.attrs[i].vals)
					}
				}
				r, shared = sub, false
			}
			e = sel
		case 7:
			desc = "Freeze"
			e.Freeze()
			r.frozen = true
		case 8:
			// Restrict the frozen entry to some distinct names, then keep
			// working on the restriction: frozen, sharing its parent's array.
			e.Freeze()
			r.frozen = true
			keep()
			var names []string
			for k := next() % 4; k >= 0; k-- {
				if n := refNormName(opNames[next()%len(opNames)]); !slices.Contains(names, n) {
					names = append(names, n)
				}
			}
			desc = fmt.Sprintf("Restrict(%q)", names)
			sub := &refEntry{dn: r.dn, frozen: true}
			for _, n := range names {
				var vals []string
				if i := r.find(n); i >= 0 {
					vals = slices.Clone(r.attrs[i].vals)
				}
				sub.attrs = append(sub.attrs, refAttr{n, vals})
			}
			e, r, shared = e.Restrict(names), sub, true
		}
		checkLayout(t, fmt.Sprintf("step %d %s", step, desc), e, r, shared)
	}
	// Assemble with a repeated name: Put semantics, the later values win.
	names := []string{"objectClass", "cn", "OBJECTCLASS", "mail", "cn"}
	ends := []int{2, 3, 4, 6, 6}
	vals := []string{"top", "person", "Ann", "inetOrgPerson", "a@x", "b@x"}
	a, ra := wire(d, names, ends, vals), &refEntry{dn: d}
	lo := 0
	for i, n := range names {
		ra.put(n, vals[lo:ends[i]])
		lo = ends[i]
	}
	checkLayout(t, "Assemble", a, ra, false)
	a.Put("mail", "c@x", "d@x", "e@x").Add("objectclass", "Top", "extensibleObject")
	ra.put("mail", []string{"c@x", "d@x", "e@x"})
	ra.add("objectclass", []string{"Top", "extensibleObject"})
	checkLayout(t, "Assemble then Put and Add", a, ra, false)
	// Names in normal form: the entry is the body and the layout as given.
	b, rb := wire(d, []string{"cn", "mail"}, []int{1, 3}, []string{"Ann", "a@x", "b@x"}), &refEntry{dn: d}
	rb.put("cn", []string{"Ann"})
	rb.put("mail", []string{"a@x", "b@x"})
	checkLayout(t, "Assemble in normal form", b, rb, false)
	body := "cnAnnmaila@xb@x"
	l := NewLayout(2, 3)
	l.Attr(0, 2)
	l.Value(2, 5)
	l.Attr(5, 9)
	l.Value(9, 12)
	l.Value(12, 15)
	b = Assemble(d, body, l)
	checkLayout(t, "Assemble over a body", b, rb, false)
	if &b.raw[0] != unsafe.StringData(body) {
		t.Fatal("an entry in normal form was copied out of its body")
	}
	b.Put("cn", "Bob")
	rb.put("cn", []string{"Bob"})
	checkLayout(t, "Assemble over a body then Put", b, rb, false)
	for i, k := range frozen {
		checkLayout(t, fmt.Sprintf("frozen entry %d at the end", i), k.e, k.r, k.shared)
	}
}

// TestEntryOpsMatchModel runs fixed operation sequences, and every short
// one drawn from a seeded stream, through runEntryOps.
func TestEntryOpsMatchModel(t *testing.T) {
	for _, ops := range entryOpsSeeds() {
		runEntryOps(t, ops)
	}
	state := uint32(1)
	for n := 0; n < 300; n++ {
		ops := make([]byte, 60)
		for i := range ops {
			state = state*1664525 + 1013904223
			ops[i] = byte(state >> 24)
		}
		runEntryOps(t, ops)
	}
}

// entryOpsSeeds are operation sequences for runEntryOps: per operation a
// byte choosing it (mod 9), one choosing the name, and for a mutator a value
// count (mod 5) and one byte per value.
func entryOpsSeeds() [][]byte {
	return [][]byte{
		{},
		{0, 0, 2, 0, 1, 0, 1, 1, 3}, // Put cn a A; Put CN b, in place
		{0, 0, 2, 0, 3, 0, 3, 1, 12, 2, 0, 1, 13},                      // Put cn; Put sn; Add cn d moves cn to the end
		{0, 0, 1, 0, 7, 0, 0, 0, 1, 3, 5, 0, 0, 0, 1, 3},               // Put; Freeze; Put panics; Clone; Put
		{0, 0, 1, 0, 0, 4, 1, 3, 8, 0, 1, 0, 10, 5, 0, 2, 0, 2, 3, 12}, // Restrict(cn, uid); Clone; Add
		{2, 5, 4, 8, 9, 0, 1, 0, 7, 1, 11, 4, 6, 1, 9},                 // Add with duplicates under case; DeleteValues
		{0, 0, 1, 0, 0, 3, 1, 3, 6, 0, 1, 3},                           // Select(cn, sn) of a mutable entry
	}
}

// FuzzEntryOps holds the buffer-and-table layout to the reference model on
// arbitrary operation sequences.
func FuzzEntryOps(f *testing.F) {
	for _, ops := range entryOpsSeeds() {
		f.Add(ops)
	}
	f.Fuzz(runEntryOps)
}

// TestReplacedValuesAreCleared: a value a Put replaces or a DeleteValues
// removes is reachable from nothing: the entry copied its bytes rather than
// keep the caller's string — which may alias a whole message body — and a
// clone holds the live bytes and no others.
func TestReplacedValuesAreCleared(t *testing.T) {
	e := person(t)
	e.Put("cn", "One")
	e.Put("sn", "Doe", "Roe", "Poe")
	e.Put("mail", "a@x", "b@x", "c@x", "d@x")
	e.Add("objectclass", "extensibleObject")
	if err := e.DeleteValues("cn"); err != nil {
		t.Fatal(err)
	}
	if err := e.DeleteValues("objectclass", "top", "person"); err != nil {
		t.Fatal(err)
	}
	if msg := badLayout(e, false); msg != "" {
		t.Fatal(msg)
	}
	want := "dn: cn=John Doe,ou=research,c=us,o=xyz; departmentnumber: 80; mail: a@x; mail: b@x; mail: c@x; mail: d@x; " +
		"objectclass: organizationalPerson; objectclass: inetOrgPerson; objectclass: extensibleObject; serialnumber: 0456; " +
		"sn: Doe; sn: Roe; sn: Poe; telephonenumber: 2618-2618"
	if e.String() != want {
		t.Errorf("got  %s\nwant %s", e, want)
	}
	c := e.Clone()
	if strings.Contains(string(c.raw), "John") || strings.Contains(string(c.raw), "top") {
		t.Errorf("a clone keeps a replaced or deleted value: %q", c.raw)
	}
}

// TestAddManyValues: an Add of many values checks them for duplicates
// through a set, and collapses values equal under caseIgnoreMatch whether
// they repeat within the call or match values already there.
func TestAddManyValues(t *testing.T) {
	e := New(dn.MustParse("cn=x,o=xyz")).Put("member", "M0", "m1")
	var vals []string
	for i := 0; i < 5000; i++ {
		vals = append(vals, fmt.Sprintf("m%d", i), fmt.Sprintf(" M%d ", i))
	}
	e.Add("member", vals...)
	got := e.Values("member")
	if len(got) != 5000 || got[0] != "M0" || got[1] != "m1" || got[2] != "m2" || got[4999] != "m4999" {
		t.Errorf("Add of 10000 values, half duplicates: %d values, first %q", len(got), got[:min(3, len(got))])
	}
}

// TestPutAllocs gates what it costs to build an entry attribute by
// attribute, as a generator, an LDIF reader or an Add request decoder does.
// A Table-1 employee from nine Puts is the struct, the offset table and the
// byte buffer, which grows once for the 512 B description. It used to be
// 18: a copy of every attribute's values, a lowered copy of every
// mixed-case name, and the table growing one append at a time. A clone is
// three allocations whatever built the original: the struct, the table and
// a buffer of the live bytes; CloneRoom's buffer and table have room for
// what it is told will be added, so a Put within it allocates nothing more.
func TestPutAllocs(t *testing.T) {
	d := dn.MustParse("cn=emp us 17,c=us,o=xyz")
	description := strings.Repeat("x", 512)
	var e *Entry
	build := func() {
		e = New(d)
		e.Put("objectclass", "top", "person", "organizationalPerson", "inetOrgPerson")
		e.Put("cn", "emp us 17")
		e.Put("sn", "sn17")
		e.Put("serialNumber", "100017")
		e.Put("uid", "u100017")
		e.Put("mail", "qzkxv@us.xyz.com")
		e.Put("departmentNumber", "231")
		e.Put("telephoneNumber", "555-0117")
		e.Put("description", description)
	}
	allocs := testing.AllocsPerRun(200, build)
	if e.NumAttrs() != 9 || e.First("serialnumber") != "100017" {
		t.Fatalf("built %s", e)
	}
	t.Logf("entry of nine Puts: %.0f allocations", allocs)
	if allocs > 4 {
		t.Errorf("building a Table-1 employee from nine Puts allocates %.0f times, gate is 4", allocs)
	}
	var c *Entry
	allocs = testing.AllocsPerRun(200, func() { c = e.Clone() })
	if !c.Equal(e) {
		t.Fatalf("clone %s", c)
	}
	t.Logf("Clone of it: %.0f allocations", allocs)
	if allocs > 3 {
		t.Errorf("Clone allocates %.0f times, gate is 3", allocs)
	}
	// A clone with room for an attribute takes it in place.
	allocs = testing.AllocsPerRun(200, func() { c = e.CloneRoom(1, 2, len("pager")+16).Put("pager", "555-0199", "555-0198") })
	if c.NumAttrs() != 10 || !c.Equal(e.Clone().Put("pager", "555-0199", "555-0198")) {
		t.Fatalf("clone with room, then Put: %s", c)
	}
	t.Logf("CloneRoom of it, then a Put in the room: %.0f allocations", allocs)
	if allocs > 3 {
		t.Errorf("CloneRoom and a Put within its room allocate %.0f times, gate is 3", allocs)
	}
}

// TestNormNameTable: a mixed-case name is lowered once and then found in
// the table; a name already in normal form is returned as it is; non-ASCII
// names and spellings that share a slot still normalize exactly.
func TestNormNameTable(t *testing.T) {
	for _, name := range []string{"serialNumber", "SERIALNUMBER", " serialNumber ", "\tcn\n", "cn", "\x01cn", "Ärger", "İd",
		"\u00a0cn\u00a0", "Cn\u2003", "\u2003", "", " ", "telephoneNumber", "objectClass"} {
		if got, want := NormName(name), refNormName(name); got != want {
			t.Errorf("NormName(%q) = %q, want %q", name, got, want)
		}
	}
	for _, v := range normValueCorpus {
		for _, name := range []string{v, strings.ToUpper(v), " " + v, v + "\t", "A" + v + "\u0085"} {
			if got, want := NormName(name), refNormName(name); got != want {
				t.Errorf("NormName(%q) = %q, want %q", name, got, want)
			}
		}
	}
	for i := 0; i < 4*len(nameCache); i++ { // every slot taken over, some many times
		name := fmt.Sprintf("Attr%dX", i)
		if got := NormName(name); got != strings.ToLower(name) {
			t.Fatalf("NormName(%q) = %q", name, got)
		}
	}
	NormName("departmentNumber")
	if allocs := testing.AllocsPerRun(100, func() { NormName("departmentNumber") }); allocs != 0 {
		t.Errorf("NormName of a name in the table allocates %.0f times", allocs)
	}
}

// TestNormNameConcurrent: goroutines that take slots of the shared table
// from one another still each get the exact normal form.
func TestNormNameConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				name := fmt.Sprintf("Name%dOf%d", i%(len(nameCache)+g), g)
				if got := NormName(name); got != strings.ToLower(name) {
					t.Errorf("NormName(%q) = %q", name, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEntryLayout: the table and the buffer hold no pointer, so a held entry
// costs the collector its own few pointers — the DN's strings, the buffer
// and the table — however many attributes and values it carries.
func TestEntryLayout(t *testing.T) {
	typ := reflect.TypeOf(Entry{})
	pointers := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Slice:
			if k := f.Type.Elem().Kind(); k != reflect.Uint8 && k != reflect.Uint32 {
				t.Errorf("field %s is a slice of %s, which the collector scans", f.Name, f.Type.Elem())
			}
			pointers++
		case reflect.Struct: // the DN: its two strings
			if f.Type != reflect.TypeOf(dn.DN{}) {
				t.Errorf("field %s is a %s", f.Name, f.Type)
			}
			pointers += 2
		case reflect.Int, reflect.Bool:
		default:
			t.Errorf("field %s is a %s", f.Name, f.Type)
		}
	}
	if pointers != 4 {
		t.Errorf("an entry holds %d pointers, want 4: the DN's two strings, the buffer and the table", pointers)
	}
}

// TestOffsetsPastMessageBound: the table's offsets address an entry larger
// than the wire's 16 MiB message bound (and so the LDIF reader's 4 MiB
// values): a value stored after a 16 MiB one reads back whole.
func TestOffsetsPastMessageBound(t *testing.T) {
	big := strings.Repeat("v", 16<<20)
	e := New(dn.MustParse("cn=x,o=xyz")).Put("description", big).Put("cn", "after")
	e.Add("cn", "later")
	for _, c := range []*Entry{e, e.Clone()} {
		if got := c.Values("cn"); len(got) != 2 || got[0] != "after" || got[1] != "later" {
			t.Fatalf("values past 16 MiB read back as %q", got)
		}
		if c.First("description") != big {
			t.Fatal("the 16 MiB value reads back changed")
		}
		if a, _ := c.Lookup("cn"); a.vals[0] < 16<<20 {
			t.Fatalf("cn starts at %d, not past the 16 MiB value", a.vals[0])
		}
	}
}

// TestCloneReleasesBody: a clone of a decoded entry holds its live bytes
// only, so once the original goes the message body it was read from is
// unreachable, whatever the clone keeps or replaces.
func TestCloneReleasesBody(t *testing.T) {
	released := make(chan struct{})
	c := func() *Entry {
		body := new([4096]byte)
		n := copy(body[:], "cnAnnmaila@x")
		runtime.SetFinalizer(body, func(*[4096]byte) { close(released) })
		l := NewLayout(2, 2)
		l.Attr(0, 2)
		l.Value(2, 5)
		l.Attr(5, 9)
		l.Value(9, 12)
		e := Assemble(dn.MustParse("cn=Ann,o=xyz"), unsafe.String(&body[0], n), l).Freeze()
		c := e.Clone()
		c.Put("mail", "b@x")
		return c
	}()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-released:
			if c.First("cn") != "Ann" || c.First("mail") != "b@x" {
				t.Fatalf("clone reads %s", c)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the message body is still reachable from a clone of the entry decoded from it")
}
