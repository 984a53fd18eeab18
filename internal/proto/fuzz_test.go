package proto

import (
	"bytes"
	"testing"

	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
)

// writeRequestSeeds builds one well-formed PDU per write operation —
// including the edge-write forwarding control — as the fuzz corpus.
func writeRequestSeeds() [][]byte {
	msgs := []*Message{
		{ID: 1, Op: &AddRequest{DN: "cn=a,o=xyz", Attrs: []Attribute{
			{Type: "objectclass", Values: []string{"person"}},
			{Type: "cn", Values: []string{"a"}},
			{Type: "sn", Values: []string{"a", "b"}},
		}}},
		{ID: 2, Op: &DelRequest{DN: "cn=gone,o=xyz"}},
		{ID: 3, Op: &ModifyRequest{DN: "cn=m,o=xyz", Changes: []ModifyChange{
			{Op: ModifyOpAdd, Attr: Attribute{Type: "phone", Values: []string{"123"}}},
			{Op: ModifyOpDelete, Attr: Attribute{Type: "fax"}},
			{Op: ModifyOpReplace, Attr: Attribute{Type: "mail", Values: []string{"x@y", "z@y"}}},
		}}},
		{ID: 4, Op: &ModifyDNRequest{DN: "cn=r,o=xyz", NewRDN: "cn=s", DeleteOldRDN: true, NewSuperior: "ou=n,o=xyz"}},
		{ID: 5, Op: &AddRequest{DN: "cn=fwd,o=xyz", Attrs: []Attribute{{Type: "sn", Values: []string{"f"}}}},
			Controls: []Control{NewEdgeWriteControl("r1.42")}},
		{ID: 6, Op: &DelRequest{DN: "cn=fwd,o=xyz"},
			Controls: []Control{NewEdgeWriteControl("replica-a.7")}},
	}
	var out [][]byte
	for _, m := range msgs {
		b, err := m.Encode()
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzDecodeWriteRequest feeds arbitrary bytes to the full message decoder
// with a corpus of well-formed add/delete/modify/modifyDN request PDUs
// (the edge-write ingress surface: a replica accepting writes parses these
// from untrusted clients). Property: Decode never panics, and every
// successfully decoded write request survives an encode→decode→encode
// round trip byte-identically — the stability the WAL replay and
// forwarding paths rely on.
func FuzzDecodeWriteRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x30, 0x03, 0x02, 0x01, 0x01})
	for _, seed := range writeRequestSeeds() {
		f.Add(seed)
		if len(seed) > 4 {
			f.Add(seed[:len(seed)-3]) // truncated mid-operation
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return // malformed input must error, not panic
		}
		switch m.Op.(type) {
		case *AddRequest, *DelRequest, *ModifyRequest, *ModifyDNRequest:
		default:
			return
		}
		enc1, err := m.Encode()
		if err != nil {
			t.Fatalf("decoded write request does not re-encode: %v (%+v)", err, m.Op)
		}
		m2, err := Decode(enc1)
		if err != nil {
			t.Fatalf("re-encoded write request does not decode: %v", err)
		}
		enc2, err := m2.Encode()
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("write request round trip unstable:\n  first  %x\n  second %x", enc1, enc2)
		}
	})
}

// FuzzDecodeSearchEntry feeds arbitrary bytes to the one-pass search-entry
// decoder (the replication ingress surface: a consumer parses these off its
// supplier's stream), seeded with labelled PDUs and with the bare entry of a
// content transfer. Property: Decode never panics, and a decoded entry
// re-encodes to a PDU that decodes to an equal entry and, from there on,
// encodes byte-identically.
func FuzzDecodeSearchEntry(f *testing.F) {
	for _, m := range []*Message{
		{ID: 7, Op: &SearchEntry{Entry: employeeEntry()},
			Controls: []Control{EntryChange{Action: ChangeActionAdd, Final: true, Point: 2, CSN: 9}.Control()}},
		{ID: 7, Op: &SearchEntry{Entry: entry.New(dn.MustParse("cn=gone,o=xyz"))},
			Controls: []Control{EntryChange{Action: ChangeActionAdd, Final: true, Point: 2, CSN: 9}.Control()}},
		{ID: 7, Op: &SearchEntry{Entry: employeeEntry()}},
	} {
		seed, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return // malformed input must error, not panic
		}
		se, ok := m.Op.(*SearchEntry)
		if !ok {
			return
		}
		enc1, err := m.Encode()
		if err != nil {
			t.Fatalf("decoded search entry does not re-encode: %v", err)
		}
		m2, err := Decode(enc1)
		if err != nil {
			t.Fatalf("re-encoded search entry does not decode: %v", err)
		}
		if got := m2.Op.(*SearchEntry).Entry; !got.Equal(se.Entry) || got.String() != se.Entry.String() {
			t.Fatalf("round trip changed the entry:\n  first  %s\n  second %s", se.Entry, got)
		}
		if enc2, _ := m2.Encode(); !bytes.Equal(enc1, enc2) {
			t.Fatalf("search entry round trip unstable:\n  first  %x\n  second %x", enc1, enc2)
		}
	})
}

// FuzzDecodeEntryChange feeds arbitrary bytes to the entry-change control
// decoder and, through the message decoder, to an update PDU carrying one —
// seeded with a patch whose attributes include an empty value set, the wire
// form of "this attribute is now absent", with a move and its old DN, and
// with an action no consumer knows. Properties: neither decoder panics; a
// decoded control re-encodes to one that decodes to the same fields; an
// action outside the defined ones never decodes; and a decoded patch keeps
// its empty-valued attributes across a round trip — dropping one would turn
// a removal into a no-op.
func FuzzDecodeEntryChange(f *testing.F) {
	patch := entry.New(dn.MustParse("cn=emp us 17,c=us,o=xyz"))
	patch.Put("telephoneNumber", "555-0117").Put("pager").Put("mail", "a@x", "b@x")
	for _, c := range []Control{
		EntryChange{Action: ChangeActionPatch}.Control(),
		EntryChange{Action: ChangeActionPatch, Final: true, Point: 9, CSN: 9}.Control(),
		EntryChange{Action: ChangeActionDelete, Final: true}.Control(),
		EntryChange{Action: ChangeActionAdd, Final: true, Point: 2, CSN: 9, Cookie: "sess-1@2"}.Control(),
		EntryChange{Action: ChangeActionMove, OldDN: "cn=emp us 16,c=us,o=xyz"}.Control(),
		EntryChange{Action: ChangeActionMove, Final: true, Point: 2, CSN: 9, OldDN: "cn=emp us 16,c=us,o=xyz"}.Control(),
		EntryChange{Action: ChangeActionMove + 1, Final: true}.Control(),
	} {
		seed, err := (&Message{ID: 7, Op: &SearchEntry{Entry: patch}, Controls: []Control{c}}).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed, c.Value)
		f.Add(seed[:len(seed)-5], c.Value[:len(c.Value)/2])
	}
	f.Fuzz(func(t *testing.T, pdu, value []byte) {
		if ec, err := ParseEntryChange(Control{OID: OIDEntryChange, Value: value}); err == nil {
			if ec.Action < ChangeActionAdd || ec.Action > ChangeActionMove {
				t.Fatalf("entry-change control with action %d decoded", ec.Action)
			}
			if again, err := ParseEntryChange(ec.Control()); err != nil || again != ec {
				t.Fatalf("entry-change control round trip: %+v became %+v, err %v", ec, again, err)
			}
		}
		m, err := Decode(pdu)
		if err != nil {
			return // malformed input must error, not panic
		}
		se, ok := m.Op.(*SearchEntry)
		if !ok {
			return
		}
		if cc, ok := m.Control(OIDEntryChange); ok {
			_, _ = ParseEntryChange(cc) // must not panic on whatever rode along
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("decoded update PDU does not re-encode: %v", err)
		}
		m2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded update PDU does not decode: %v", err)
		}
		got := m2.Op.(*SearchEntry).Entry
		if got.NumAttrs() != se.Entry.NumAttrs() {
			t.Fatalf("round trip changed the attribute count %d -> %d:\n  first  %s\n  second %s",
				se.Entry.NumAttrs(), got.NumAttrs(), se.Entry, got)
		}
		for i := 0; i < got.NumAttrs(); i++ {
			name, vals := got.AttrAt(i).Name(), got.AttrAt(i).Strings()
			if was, ok := se.Entry.Lookup(name); !ok || was.Len() != len(vals) {
				t.Fatalf("round trip changed attribute %q: %q -> %q", name, was.Strings(), vals)
			}
		}
	})
}

// fuzzControl is the property of a control decoder's fuzz target, seeded with
// the values of seeds and their first halves: decoding arbitrary bytes never
// panics, and a value that decodes re-encodes (through reencode, which parses
// a control and builds it again) to a control that decodes and re-encodes to
// the same bytes.
func fuzzControl(f *testing.F, seeds []Control, reencode func(Control) (Control, error)) {
	for _, c := range seeds {
		f.Add(c.Value)
		f.Add(c.Value[:len(c.Value)/2])
	}
	oid := seeds[0].OID
	f.Fuzz(func(t *testing.T, value []byte) {
		first, err := reencode(Control{OID: oid, Value: value})
		if err != nil {
			return // malformed input must error, not panic
		}
		second, err := reencode(first)
		if err != nil {
			t.Fatalf("re-encoded control %x does not decode: %v", first.Value, err)
		}
		if first.OID != second.OID || first.Criticality != second.Criticality || !bytes.Equal(first.Value, second.Value) {
			t.Fatalf("control round trip unstable:\n  first  %+v\n  second %+v", first, second)
		}
	})
}

// FuzzDecodeFiltersWatch feeds arbitrary bytes to the message decoder with
// the filters watch a diverted supervisor parks on a tier: a search request
// carrying the valueless watch control, and the same request whose control
// still carries a generation, as older clients sent it. A server knows a
// watch by the control's presence alone. Property: Decode never panics, and
// a decoded search request re-encodes to a PDU that decodes with the watch
// still present or still absent and, from there on, encodes byte-identically.
func FuzzDecodeFiltersWatch(f *testing.F) {
	q := query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=05*)")
	legacy := NewFiltersWatchControl()
	legacy.Value = []byte{0x30, 0x03, 0x02, 0x01, 0x07} // SEQUENCE { generation 7 }
	for _, c := range []Control{NewFiltersWatchControl(), legacy} {
		seed, err := (&Message{ID: 3, Op: &SearchRequest{Query: q}, Controls: []Control{c}}).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return // malformed input must error, not panic
		}
		if _, ok := m.Op.(*SearchRequest); !ok {
			return
		}
		_, watch := m.Control(OIDFiltersWatch)
		enc1, err := m.Encode()
		if err != nil {
			t.Fatalf("decoded search request does not re-encode: %v", err)
		}
		m2, err := Decode(enc1)
		if err != nil {
			t.Fatalf("re-encoded search request does not decode: %v", err)
		}
		if _, ok := m2.Control(OIDFiltersWatch); ok != watch {
			t.Fatalf("round trip changed the watch's presence: %v -> %v", watch, ok)
		}
		if enc2, _ := m2.Encode(); !bytes.Equal(enc1, enc2) {
			t.Fatalf("search request round trip unstable:\n  first  %x\n  second %x", enc1, enc2)
		}
	})
}

// FuzzDecodeEdgeWrite: the edge-write control on a write a replica forwards
// upstream, whose op id the master dedups by.
func FuzzDecodeEdgeWrite(f *testing.F) {
	fuzzControl(f, []Control{NewEdgeWriteControl("r1.42"), NewEdgeWriteControl("")},
		func(c Control) (Control, error) {
			opID, err := ParseEdgeWrite(c)
			return NewEdgeWriteControl(opID), err
		})
}

// FuzzDecodeEdgeWriteDone: the edge-write-done control carrying the master's
// CSN and duplicate flag back to the forwarding replica.
func FuzzDecodeEdgeWriteDone(f *testing.F) {
	fuzzControl(f, []Control{NewEdgeWriteDoneControl(123456, false), NewEdgeWriteDoneControl(0, true)},
		func(c Control) (Control, error) {
			csn, dup, err := ParseEdgeWriteDone(c)
			return NewEdgeWriteDoneControl(csn, dup), err
		})
}
