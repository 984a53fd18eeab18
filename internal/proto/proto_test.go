package proto

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"filterdir/internal/ber"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
)

// roundTrip encodes a message and decodes it back.
func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	enc, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.ID != m.ID {
		t.Errorf("ID = %d, want %d", got.ID, m.ID)
	}
	return got
}

func TestBindRoundTrip(t *testing.T) {
	m := &Message{ID: 1, Op: &BindRequest{Version: 3, Name: "cn=admin", Password: "secret"}}
	got := roundTrip(t, m)
	b, ok := got.Op.(*BindRequest)
	if !ok {
		t.Fatalf("op type %T", got.Op)
	}
	if b.Version != 3 || b.Name != "cn=admin" || b.Password != "secret" {
		t.Errorf("bind fields: %+v", b)
	}

	resp := &Message{ID: 1, Op: &BindResponse{resultOp{Result{Code: ResultSuccess}}}}
	got = roundTrip(t, resp)
	if r, ok := got.Op.(*BindResponse); !ok || r.Code != ResultSuccess {
		t.Errorf("bind response: %#v", got.Op)
	}
}

func TestSearchRequestRoundTrip(t *testing.T) {
	filters := []string{
		"(objectclass=*)",
		"(sn=Doe)",
		"(&(objectclass=inetorgperson)(serialnumber=04*))",
		"(|(a=1)(!(b=2)))",
		"(age>=30)",
		"(age<=30)",
		"(sn=a*b*c)",
		"(sn=*final)",
		"(&)",
		"(|)",
	}
	for _, f := range filters {
		q := query.MustNew("c=us,o=xyz", query.ScopeSubtree, f, "cn", "mail")
		m := &Message{ID: 2, Op: &SearchRequest{Query: q, SizeLimit: 100}}
		got := roundTrip(t, m)
		sr, ok := got.Op.(*SearchRequest)
		if !ok {
			t.Fatalf("op type %T", got.Op)
		}
		if !sr.Query.Base.Equal(q.Base) || sr.Query.Scope != q.Scope {
			t.Errorf("base/scope mismatch for %s", f)
		}
		want := q.Filter.String()
		if sr.Query.Filter.String() != want {
			t.Errorf("filter round trip: got %s, want %s", sr.Query.Filter, want)
		}
		if !reflect.DeepEqual(sr.Query.Attrs, q.Attrs) {
			t.Errorf("attrs mismatch: %v vs %v", sr.Query.Attrs, q.Attrs)
		}
		if sr.SizeLimit != 100 {
			t.Errorf("size limit = %d", sr.SizeLimit)
		}
	}
}

func TestSearchEntryRoundTrip(t *testing.T) {
	e := entry.New(dn.MustParse("cn=John Doe,c=us,o=xyz"))
	e.Put("objectclass", "person", "inetOrgPerson")
	e.Put("cn", "John Doe")
	e.Put("mail", "j@x")
	m := &Message{ID: 3, Op: &SearchEntry{Entry: e}}
	got := roundTrip(t, m)
	se, ok := got.Op.(*SearchEntry)
	if !ok {
		t.Fatalf("op type %T", got.Op)
	}
	back := se.Entry
	if !back.Equal(e) {
		t.Errorf("entry mismatch:\n got %s\nwant %s", back, e)
	}
}

func TestSearchReferenceAndDone(t *testing.T) {
	m := &Message{ID: 4, Op: &SearchReference{URLs: []string{"ldap://hostB/c=us,o=xyz", "ldap://hostC"}}}
	got := roundTrip(t, m)
	ref, ok := got.Op.(*SearchReference)
	if !ok || len(ref.URLs) != 2 || ref.URLs[0] != "ldap://hostB/c=us,o=xyz" {
		t.Errorf("reference: %#v", got.Op)
	}

	done := &Message{ID: 4, Op: &SearchDone{resultOp{Result{
		Code: ResultReferral, Referrals: []string{"ldap://hostA"}}}}}
	got = roundTrip(t, done)
	d, ok := got.Op.(*SearchDone)
	if !ok || d.Code != ResultReferral || len(d.Referrals) != 1 {
		t.Errorf("done: %#v", got.Op)
	}
}

func TestUpdateOpsRoundTrip(t *testing.T) {
	add := &Message{ID: 5, Op: &AddRequest{DN: "cn=x,o=xyz", Attrs: []Attribute{
		{Type: "objectclass", Values: []string{"person"}},
		{Type: "cn", Values: []string{"x"}},
	}}}
	got := roundTrip(t, add)
	a, ok := got.Op.(*AddRequest)
	if !ok || a.DN != "cn=x,o=xyz" || len(a.Attrs) != 2 {
		t.Fatalf("add: %#v", got.Op)
	}

	del := &Message{ID: 6, Op: &DelRequest{DN: "cn=x,o=xyz"}}
	got = roundTrip(t, del)
	if d, ok := got.Op.(*DelRequest); !ok || d.DN != "cn=x,o=xyz" {
		t.Fatalf("del: %#v", got.Op)
	}

	mod := &Message{ID: 7, Op: &ModifyRequest{DN: "cn=x,o=xyz", Changes: []ModifyChange{
		{Op: ModifyOpReplace, Attr: Attribute{Type: "mail", Values: []string{"a@b"}}},
		{Op: ModifyOpDelete, Attr: Attribute{Type: "phone"}},
	}}}
	got = roundTrip(t, mod)
	mm, ok := got.Op.(*ModifyRequest)
	if !ok || len(mm.Changes) != 2 || mm.Changes[0].Op != ModifyOpReplace {
		t.Fatalf("modify: %#v", got.Op)
	}
	if len(mm.Changes[1].Attr.Values) != 0 {
		t.Errorf("empty value set decoded as %v", mm.Changes[1].Attr.Values)
	}

	mdn := &Message{ID: 8, Op: &ModifyDNRequest{DN: "cn=x,o=xyz", NewRDN: "cn=y",
		DeleteOldRDN: true, NewSuperior: "ou=new,o=xyz"}}
	got = roundTrip(t, mdn)
	md, ok := got.Op.(*ModifyDNRequest)
	if !ok || md.NewRDN != "cn=y" || !md.DeleteOldRDN || md.NewSuperior != "ou=new,o=xyz" {
		t.Fatalf("modifyDN: %#v", got.Op)
	}
}

func TestAbandonUnbindRoundTrip(t *testing.T) {
	m := &Message{ID: 9, Op: &AbandonRequest{MessageID: 4}}
	got := roundTrip(t, m)
	if a, ok := got.Op.(*AbandonRequest); !ok || a.MessageID != 4 {
		t.Fatalf("abandon: %#v", got.Op)
	}
	u := &Message{ID: 10, Op: &UnbindRequest{}}
	got = roundTrip(t, u)
	if _, ok := got.Op.(*UnbindRequest); !ok {
		t.Fatalf("unbind: %#v", got.Op)
	}
}

func TestControlsRoundTrip(t *testing.T) {
	m := &Message{ID: 11,
		Op:       &SearchRequest{Query: query.MustNew("o=xyz", query.ScopeSubtree, "(sn=*)")},
		Controls: []Control{NewReSyncRequestControl(ReSyncModePoll, "cookie-7")},
	}
	got := roundTrip(t, m)
	c, ok := got.Control(OIDReSyncRequest)
	if !ok {
		t.Fatal("resync control missing")
	}
	req, err := ParseReSyncRequest(c)
	if err != nil {
		t.Fatal(err)
	}
	if req.Mode != ReSyncModePoll || req.Cookie != "cookie-7" {
		t.Errorf("resync request: %+v", req)
	}
	if !c.Criticality {
		t.Error("resync control must be critical")
	}
}

func TestReSyncDoneControl(t *testing.T) {
	c := NewReSyncDoneControl("sess-9", true, 0)
	cookie, reload, csn, err := ParseReSyncDone(c)
	if err != nil || cookie != "sess-9" || !reload || csn != 0 {
		t.Errorf("done control: %q %v %d %v", cookie, reload, csn, err)
	}
	// The CSN-stamped form carries the supplier's commit watermark.
	c = NewReSyncDoneControl("sess-9", false, 42)
	cookie, reload, csn, err = ParseReSyncDone(c)
	if err != nil || cookie != "sess-9" || reload || csn != 42 {
		t.Errorf("done control with csn: %q %v %d %v", cookie, reload, csn, err)
	}
}

func TestEntryChangeControl(t *testing.T) {
	for _, a := range []ChangeAction{ChangeActionAdd, ChangeActionDelete, ChangeActionModify, ChangeActionRetain, ChangeActionPatch} {
		c := EntryChange{Action: a}.Control()
		got, err := ParseEntryChange(c)
		if err != nil || got != (EntryChange{Action: a}) {
			t.Errorf("entry change %v: got %+v, %v", a, got, err)
		}
	}
	// The batch-closing form names the sync point and the watermark: CSN 0
	// is a point like any other, and a point named apart from the watermark
	// (a cascade tier's) carries its name.
	for _, want := range []EntryChange{
		{Action: ChangeActionModify, Final: true, Point: 9, CSN: 9},
		{Action: ChangeActionAdd, Final: true},
		{Action: ChangeActionModify, Final: true, Point: 7, CSN: 9},
		{Action: ChangeActionModify, Final: true, Point: 9, CSN: 0},
		// The first batch of a stream asked for without a cookie names it.
		{Action: ChangeActionAdd, Final: true, Point: 7, CSN: 7, Cookie: "sess-3@7"},
		// A move carries its old DN, with or without the sync point.
		{Action: ChangeActionMove, OldDN: "cn=emp us 17,c=us,o=xyz"},
		{Action: ChangeActionMove, Final: true, Point: 7, CSN: 9, OldDN: "cn=emp us 17,c=us,o=xyz"},
	} {
		got, err := ParseEntryChange(want.Control())
		if err != nil || got != want {
			t.Errorf("entry change: got %+v, %v; want %+v", got, err, want)
		}
	}
	// What a consumer could not act on is refused: a cookie or a point name
	// off the final PDU included, which the encoder never writes.
	action := ber.AppendEnum(nil, int64(ChangeActionModify))
	for _, bad := range []Control{
		EntryChange{Action: ChangeActionMove}.Control(),
		EntryChange{Action: ChangeActionPatch, OldDN: "cn=a,o=xyz"}.Control(),
		EntryChange{Action: 0}.Control(),
		EntryChange{Action: ChangeActionMove + 1}.Control(),
		{OID: OIDEntryChange, Value: ber.AppendSequence(nil, ber.AppendString(action, ber.ClassUniversal, ber.TagOctetString, "sess-3@7"))},
		{OID: OIDEntryChange, Value: ber.AppendSequence(nil, ber.AppendInt(action, ber.ClassContext, tagPoint, 7))},
	} {
		if got, err := ParseEntryChange(bad); err == nil {
			t.Errorf("%x parsed as %+v", bad.Value, got)
		}
	}
}

func TestReadMessageStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := []*Message{
		{ID: 1, Op: &BindRequest{Version: 3}},
		{ID: 2, Op: &SearchRequest{Query: query.MustNew("", query.ScopeSubtree, "(objectclass=*)")}},
		{ID: 3, Op: &UnbindRequest{}},
	}
	for _, m := range msgs {
		if err := m.Write(&buf); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i, want := range msgs {
		got, err := ReadMessage(r)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.ID != want.ID {
			t.Errorf("message %d ID = %d", i, got.ID)
		}
	}
	if _, err := ReadMessage(r); err == nil {
		t.Error("expected EOF error after stream end")
	}
}

func TestDecodeGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x30},
		{0x31, 0x00},
		{0x30, 0x03, 0x02, 0x01},
		{0x30, 0x05, 0x02, 0x01, 0x01, 0x02, 0x00},
	}
	for _, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("Decode(% x) succeeded", c)
		}
	}
}

func TestNegatedPredicateEncoding(t *testing.T) {
	// An NNF filter with Neg flags must encode as (!(...)) on the wire.
	f := query.MustNew("", query.ScopeSubtree, "(!(sn=Doe))").Filter.NNF()
	q := query.Query{Scope: query.ScopeSubtree, Filter: f}
	m := &Message{ID: 12, Op: &SearchRequest{Query: q}}
	got := roundTrip(t, m)
	sr := got.Op.(*SearchRequest)
	if sr.Query.Filter.String() != "(!(sn=Doe))" {
		t.Errorf("negated predicate round trip: %s", sr.Query.Filter)
	}
}

func TestUnknownApplicationTag(t *testing.T) {
	// A syntactically valid message with an unassigned application tag.
	var body []byte
	body = append(body, 0x02, 0x01, 0x01) // messageID 1
	body = append(body, 0x7d, 0x00)       // application tag 29, empty
	msg := append([]byte{0x30, byte(len(body))}, body...)
	if _, err := Decode(msg); err == nil {
		t.Error("unknown application tag accepted")
	}
}

func TestResultCodeStrings(t *testing.T) {
	cases := map[ResultCode]string{
		ResultSuccess:             "success",
		ResultReferral:            "referral",
		ResultNoSuchObject:        "noSuchObject",
		ResultUnwillingToPerform:  "unwillingToPerform",
		ResultEntryAlreadyExists:  "entryAlreadyExists",
		ResultNotAllowedOnNonLeaf: "notAllowedOnNonLeaf",
		ResultCode(12345):         "resultCode(12345)",
	}
	for code, want := range cases {
		if got := code.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", code, got, want)
		}
	}
}

func TestReSyncModeStrings(t *testing.T) {
	cases := map[ReSyncMode]string{
		ReSyncModePoll:    "poll",
		ReSyncModePersist: "persist",
		ReSyncModeSyncEnd: "sync_end",
		ReSyncModeRetain:  "retain",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
}

func TestControlNotFound(t *testing.T) {
	m := &Message{ID: 1, Op: &UnbindRequest{}}
	if _, ok := m.Control("1.2.3"); ok {
		t.Error("control found on message without controls")
	}
}

func TestOversizeMessageRejected(t *testing.T) {
	// A framed message claiming an absurd length must be rejected before
	// allocation.
	header := []byte{0x30, 0x84, 0x7f, 0xff, 0xff, 0xff}
	r := bufio.NewReader(bytes.NewReader(header))
	if _, err := ReadMessage(r); err == nil {
		t.Error("oversize message accepted")
	}
}

// TestSharedEncodingEquivalence pins the fan-out encoding contract: a
// message assembled from a pre-encoded op body (EncodeWithOpBody) or from a
// pre-encoded message tail (EncodeMessageTail + EncodeWithTail or
// AppendWithTail) must be
// byte-identical to the message encoded whole — a divergence would corrupt
// every session served from the shared memo.
func TestSharedEncodingEquivalence(t *testing.T) {
	e := entry.New(dn.MustParse("cn=Ann,o=xyz"))
	e.Put("objectclass", "person").Put("cn", "Ann").Put("sn", "A")
	ops := []struct {
		name string
		op   Op
	}{
		{"entry", &SearchEntry{Entry: e}},
		{"dn-only", &SearchEntry{Entry: entry.New(dn.MustParse("cn=Ann,o=xyz"))}},
	}
	controlSets := [][]Control{
		nil,
		{EntryChange{Action: ChangeActionAdd}.Control()},
		{EntryChange{Action: ChangeActionDelete, Final: true, Point: 4, CSN: 3}.Control()},
	}
	for _, tc := range ops {
		for ci, controls := range controlSets {
			want, err := (&Message{ID: 7, Op: tc.op, Controls: controls}).Encode()
			if err != nil {
				t.Fatalf("%s/%d: Encode: %v", tc.name, ci, err)
			}
			body, err := EncodeOpBody(tc.op)
			if err != nil {
				t.Fatalf("%s/%d: EncodeOpBody: %v", tc.name, ci, err)
			}
			if got := EncodeWithOpBody(7, &SearchEntry{}, body, controls); !bytes.Equal(got, want) {
				t.Errorf("%s/%d: EncodeWithOpBody diverges from Message.Encode", tc.name, ci)
			}
			tail := EncodeMessageTail(&SearchEntry{}, body, controls)
			if got := EncodeWithTail(7, tail); !bytes.Equal(got, want) {
				t.Errorf("%s/%d: EncodeWithTail diverges from Message.Encode", tc.name, ci)
			}
			// The tail is message-ID independent: rewrapping under another
			// ID must equal that message's whole encoding.
			want2, err := (&Message{ID: 123456, Op: tc.op, Controls: controls}).Encode()
			if err != nil {
				t.Fatal(err)
			}
			if got := EncodeWithTail(123456, tail); !bytes.Equal(got, want2) {
				t.Errorf("%s/%d: tail rewrap under new ID diverges", tc.name, ci)
			}
			// Appended behind another message, the tail makes the same bytes,
			// and the envelope stays within MaxEnvelopeLen at the widest ID.
			got := AppendWithTail(append([]byte(nil), want...), 123456, tail)
			if !bytes.Equal(got, append(append([]byte(nil), want...), want2...)) {
				t.Errorf("%s/%d: AppendWithTail diverges from Message.Encode", tc.name, ci)
			}
			if n := len(AppendWithTail(nil, math.MaxInt64, tail)) - len(tail); n > MaxEnvelopeLen {
				t.Errorf("%s/%d: envelope of %d bytes exceeds MaxEnvelopeLen", tc.name, ci, n)
			}
		}
	}
}

// employeeEntry is shaped like a reloaded person entry of the synthetic
// directory: nine attributes, a four-valued objectclass, a payload whose
// length needs a two-byte BER length.
func employeeEntry() *entry.Entry {
	e := entry.New(dn.MustParse("cn=emp us 17,c=us,o=xyz"))
	e.Put("objectclass", "top", "person", "organizationalPerson", "inetOrgPerson")
	e.Put("cn", "emp us 17").Put("sn", "sn17").Put("serialNumber", "100017")
	e.Put("uid", "u100017").Put("mail", "qzkxv@us.xyz.com").Put("departmentNumber", "231")
	e.Put("telephoneNumber", "555-0117").Put("description", string(bytes.Repeat([]byte("x"), 512)))
	return e
}

// appendNaive is the grow-as-you-go search-entry encoding the sized encoder
// replaced, kept as its reference: the wire bytes must not have moved.
func appendNaive(e *entry.Entry) []byte {
	body := ber.AppendString(nil, ber.ClassUniversal, ber.TagOctetString, e.DN().String())
	var attrs []byte
	for _, name := range e.AttributeNames() {
		one := ber.AppendString(nil, ber.ClassUniversal, ber.TagOctetString, name)
		var vals []byte
		for _, v := range e.Values(name) {
			vals = ber.AppendString(vals, ber.ClassUniversal, ber.TagOctetString, v)
		}
		one = ber.AppendSet(one, vals)
		attrs = ber.AppendSequence(attrs, one)
	}
	return ber.AppendSequence(body, attrs)
}

// TestSizedEncodersMatchReference: sizing the buffer once changes how often
// the encoders allocate, not one byte of what they write — at every BER
// length form (short, 0x81, 0x82) and for the DN-only PDU of a delete.
func TestSizedEncodersMatchReference(t *testing.T) {
	long := employeeEntry()
	long.Put("jpegphoto", string(bytes.Repeat([]byte("y"), 200)), string(bytes.Repeat([]byte("z"), 70000)))
	for name, e := range map[string]*entry.Entry{
		"employee": employeeEntry(),
		"dn-only":  entry.New(dn.MustParse("cn=gone,c=us,o=xyz")),
		"long":     long,
	} {
		got, err := EncodeOpBody(&SearchEntry{Entry: e})
		if err != nil {
			t.Fatal(err)
		}
		want := appendNaive(e)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: sized body differs from the reference encoding (%d vs %d bytes)", name, len(got), len(want))
		}
		controls := []Control{EntryChange{Action: ChangeActionAdd, Final: true, Point: 41, CSN: 41}.Control()}
		msg, err := (&Message{ID: 300, Op: &SearchEntry{Entry: e}, Controls: controls}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if cap(msg) != len(msg) {
			t.Errorf("%s: message buffer cap %d, len %d: not sized once", name, cap(msg), len(msg))
		}
		back, err := Decode(msg)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if se := back.Op.(*SearchEntry); !se.Entry.Equal(e) || se.Entry.String() != e.String() {
			t.Errorf("%s: round trip changed the entry", name)
		}
	}
}

// TestDecodedEntryIsIndependent: the decoded entry owns its strings — the
// caller may reuse the PDU buffer — and is an ordinary mutable entry.
func TestDecodedEntryIsIndependent(t *testing.T) {
	e := employeeEntry()
	msg, err := (&Message{ID: 1, Op: &SearchEntry{Entry: e}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(msg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range msg {
		msg[i] = 0xff
	}
	got := back.Op.(*SearchEntry).Entry
	if !got.Equal(e) {
		t.Fatal("decoded entry aliases the PDU buffer")
	}
	got.Add("cn", "another") // grows one attribute's values
	if v := got.Values("sn"); len(v) != 1 || v[0] != "sn17" {
		t.Errorf("Add on one attribute spilled into the next: sn = %q", v)
	}
}

// TestReadMessageOwnsItsBody: an entry read off a stream aliases the body
// ReadMessage allocated for it and nothing else — not the stream's buffer,
// which the next message overwrites.
func TestReadMessageOwnsItsBody(t *testing.T) {
	var stream bytes.Buffer
	for i := 0; i < 3; i++ {
		e := employeeEntry()
		e.Put("sn", fmt.Sprintf("sn-%d", i))
		if err := (&Message{ID: int64(i + 1), Op: &SearchEntry{Entry: e},
			Controls: []Control{EntryChange{Action: ChangeActionAdd}.Control()}}).Write(&stream); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReaderSize(&stream, 64) // far smaller than one message
	var got []*Message
	for i := 0; i < 3; i++ {
		m, err := ReadMessage(r)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
	}
	for i, m := range got {
		e := m.Op.(*SearchEntry).Entry
		if e.First("sn") != fmt.Sprintf("sn-%d", i) || e.DN().String() != "cn=emp us 17,c=us,o=xyz" {
			t.Errorf("message %d changed after later reads: %s", i, e)
		}
		if ec, err := ParseEntryChange(m.Controls[0]); err != nil || ec.Action != ChangeActionAdd || m.Controls[0].OID != OIDEntryChange {
			t.Errorf("message %d: control changed after later reads: %v %v", i, ec.Action, err)
		}
	}
}

// TestDecodeSearchEntryRejectsMalformed feeds truncated and mistagged
// bodies to the one-pass decoder.
func TestDecodeSearchEntryRejectsMalformed(t *testing.T) {
	good, err := (&Message{ID: 1, Op: &SearchEntry{Entry: employeeEntry()}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 8; cut < len(good); cut += 37 {
		if _, err := Decode(good[:cut]); err == nil {
			t.Errorf("message truncated at %d decoded without error", cut)
		}
	}
	// An attribute whose value set is an OCTET STRING, not a SET.
	one := ber.AppendString(nil, ber.ClassUniversal, ber.TagOctetString, "cn")
	one = ber.AppendString(one, ber.ClassUniversal, ber.TagOctetString, "not a set")
	body := ber.AppendString(nil, ber.ClassUniversal, ber.TagOctetString, "cn=a,o=xyz")
	body = ber.AppendSequence(body, ber.AppendSequence(nil, one))
	if _, err := Decode(EncodeWithOpBody(1, &SearchEntry{}, body, nil)); err == nil {
		t.Error("attribute with a mistagged value set decoded without error")
	}
}

// reloadPDU is the Table-1 employee as a content transfer ships it: a bare
// search entry, the add implied.
func reloadPDU(t testing.TB) []byte {
	pdu, err := (&Message{ID: 9, Op: &SearchEntry{Entry: employeeEntry()}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return pdu
}

// TestReloadPDUBytes is the size gate of a reloaded entry: what each entry of
// a full reload costs on the wire is its search entry and nothing else. The
// entry-change control saying `add` would add 34 B to every one.
func TestReloadPDUBytes(t *testing.T) {
	const maxReloadBytes = 810 // measured 807
	pdu := reloadPDU(t)
	labelled, err := (&Message{ID: 9, Op: &SearchEntry{Entry: employeeEntry()},
		Controls: []Control{EntryChange{Action: ChangeActionAdd}.Control()}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("reloaded entry: %d B bare, %d B with an entry-change control", len(pdu), len(labelled))
	if len(pdu) > maxReloadBytes {
		t.Errorf("reload PDU is %d B, gate is %d", len(pdu), maxReloadBytes)
	}
}

// TestDecodeAllocsPerReloadedEntry is the allocation gate of the consumer's
// decode: a reload PDU (a bare entry) becomes a message and a complete
// *entry.Entry in a fixed, small number of allocations — the body every name
// and value lies in (ReadMessage reads into it; Decode, on a caller's buffer,
// copies into it), the message, the op, the entry and its table of ranges.
// The DN is a substring of the body: a DN off this system's wire is its own
// rendering and normal form. It measured 7 while the DN kept an RDN slice
// and the entry a name table and a value array of strings. A per-value or
// per-attribute copy creeping back in would roughly double it.
func TestDecodeAllocsPerReloadedEntry(t *testing.T) {
	const maxDecodeAllocs = 6 // measured 5
	pdu := reloadPDU(t)
	var sink *Message
	allocs := testing.AllocsPerRun(200, func() { sink, _ = Decode(pdu) })
	if sink == nil {
		t.Fatal("decode failed")
	}
	t.Logf("decode: %.0f allocations per reloaded entry", allocs)
	if allocs > maxDecodeAllocs {
		t.Errorf("decode of one reloaded entry allocates %.0f times, gate is %d", allocs, maxDecodeAllocs)
	}
}

// TestDecodedEntryObjects: an entry decoded off the wire and held keeps
// three heap objects — the message body its names, values and DN lie in,
// the entry and its table of ranges — and none per attribute or value. It
// kept five while the DN held an RDN slice and the entry a name table and a
// value array of strings, which the collector traced one string at a time.
func TestDecodedEntryObjects(t *testing.T) {
	const n = 1000
	pdu := reloadPDU(t)
	held := make([]*entry.Entry, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range held {
		m, err := Decode(pdu)
		if err != nil {
			t.Fatal(err)
		}
		held[i] = m.Op.(*SearchEntry).Entry
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEntry := float64(after.HeapObjects-before.HeapObjects) / n
	runtime.KeepAlive(held)
	t.Logf("a held decoded entry: %.2f heap objects", perEntry)
	if perEntry > 3.05 { // the held slice and the test's own bookkeeping are the .05
		t.Errorf("a held decoded entry keeps %.2f heap objects, gate is 3", perEntry)
	}
}

// TestReloadRoundTripBytes: an entry decoded from a reload PDU encodes to
// that PDU's bytes again — attribute and value order survive the layout,
// repeated values and an attribute with none included.
func TestReloadRoundTripBytes(t *testing.T) {
	e := employeeEntry()
	e.Add("objectclass", "extensibleObject").Put("seeAlso", "b", "a", "b2").Put("empty")
	for _, pdu := range [][]byte{reloadPDU(t), mustEncode(t, &Message{ID: 7, Op: &SearchEntry{Entry: e}})} {
		m, err := Decode(pdu)
		if err != nil {
			t.Fatal(err)
		}
		if again := mustEncode(t, m); !bytes.Equal(again, pdu) {
			t.Errorf("decoded and encoded again, the PDU changed:\n%x\n%x", pdu, again)
		}
	}
}

func mustEncode(t *testing.T, m *Message) []byte {
	t.Helper()
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEncodeAllocsPerEntry gates the supplier's side of the same PDU: the
// first (unshared) encoding of an entry is one exactly sized buffer each for
// the body, the tail and the envelope.
func TestEncodeAllocsPerEntry(t *testing.T) {
	const maxEncodeAllocs = 4 // measured 3: body, tail and message (DN.String allocated 2 more while a DN was its RDNs)
	m := &Message{ID: 9, Op: &SearchEntry{Entry: employeeEntry().Freeze()},
		Controls: []Control{EntryChange{Action: ChangeActionAdd}.Control()}}
	var sink []byte
	allocs := testing.AllocsPerRun(200, func() { sink, _ = m.Encode() })
	if len(sink) == 0 {
		t.Fatal("encode failed")
	}
	t.Logf("encode: %.0f allocations per entry", allocs)
	if allocs > maxEncodeAllocs {
		t.Errorf("encoding one entry allocates %.0f times, gate is %d", allocs, maxEncodeAllocs)
	}
}

// patchPDU is the PDU of a one-attribute modify of the Table-1 employee as
// the master pushes it to a persist consumer: the DN, the touched attribute
// with its current values, and on the control the CSN that names the
// batch's sync point.
func patchPDU(t testing.TB) []byte {
	patch := employeeEntry().Freeze().Restrict([]string{"telephonenumber"})
	pdu, err := (&Message{ID: 9, Op: &SearchEntry{Entry: patch},
		Controls: []Control{EntryChange{Action: ChangeActionPatch, Final: true, Point: 123456, CSN: 123456}.Control()}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return pdu
}

// TestPatchPDUBytes is the size gate of an in-place modify on the wire: what
// a commit that replaces one attribute costs each matching replica must
// follow the size of the change, not of the entry (the same employee as a
// full image is several times that, and a paper-sized 6 KB entry fifty).
func TestPatchPDUBytes(t *testing.T) {
	const maxPatchBytes = 116 // measured 104 (118 while the control carried the session's cookie)
	pdu := patchPDU(t)
	image, err := (&Message{ID: 9, Op: &SearchEntry{Entry: employeeEntry()},
		Controls: []Control{EntryChange{Action: ChangeActionModify, Final: true, Point: 123456, CSN: 123456}.Control()}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("one-attribute modify: %d B as a patch, %d B as an image", len(pdu), len(image))
	if len(pdu) > maxPatchBytes {
		t.Errorf("one-attribute patch PDU is %d B with its sync point, gate is %d", len(pdu), maxPatchBytes)
	}
}

// TestMovePDUBytes is the size gate of a rename within the content: the
// Table-1 employee renamed is one move — the new DN, the RDN attribute with
// its new value, the CSN naming the sync point and the old DN — not the
// delete of the old DN plus the complete entry under the new one.
func TestMovePDUBytes(t *testing.T) {
	const maxMoveBytes = 146 // measured 134 (148 while the control carried the session's cookie)
	old := employeeEntry()
	renamed := old.Clone()
	renamed.SetDN(dn.MustParse("cn=emp us 17 renamed,c=us,o=xyz"))
	renamed.Put("cn", "emp us 17 renamed")
	pdu, err := (&Message{ID: 9, Op: &SearchEntry{Entry: renamed.Freeze().Restrict([]string{"cn"})},
		Controls: []Control{EntryChange{Action: ChangeActionMove, Final: true, Point: 123456, CSN: 123456,
			OldDN: old.DN().String()}.Control()}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	del, err := (&Message{ID: 9, Op: &SearchEntry{Entry: entry.New(old.DN())},
		Controls: []Control{EntryChange{Action: ChangeActionDelete}.Control()}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	add, err := (&Message{ID: 9, Op: &SearchEntry{Entry: renamed},
		Controls: []Control{EntryChange{Action: ChangeActionAdd, Final: true, Point: 123456, CSN: 123456}.Control()}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rename within the content: %d B as a move, %d B as a delete plus an add", len(pdu), len(del)+len(add))
	if len(pdu) > maxMoveBytes {
		t.Errorf("move PDU is %d B with its sync point, gate is %d", len(pdu), maxMoveBytes)
	}
}

// TestDecodeAllocsPerPatch gates the consumer's decode of the same PDU: the
// fixed costs of TestDecodeAllocsPerReloadedEntry (body, message, op, entry,
// table) and the control list.
func TestDecodeAllocsPerPatch(t *testing.T) {
	const maxPatchDecodeAllocs = 7 // measured 6 (8 with a DN of RDNs and an entry of strings)
	pdu := patchPDU(t)
	var sink *Message
	allocs := testing.AllocsPerRun(200, func() { sink, _ = Decode(pdu) })
	if sink == nil {
		t.Fatal("decode failed")
	}
	t.Logf("decode: %.0f allocations per patch", allocs)
	if allocs > maxPatchDecodeAllocs {
		t.Errorf("decode of one patch allocates %.0f times, gate is %d", allocs, maxPatchDecodeAllocs)
	}
	se := sink.Op.(*SearchEntry)
	if se.Entry.NumAttrs() != 1 || se.Entry.First("telephoneNumber") != "555-0117" {
		t.Errorf("decoded patch = %s, want telephoneNumber alone", se.Entry)
	}
}

// wideOrSearch encodes a subtree search whose filter is an OR of n presence
// predicates on employeenumber, each 16 bytes on the wire, and returns the
// message body as decodeMessage takes it.
func wideOrSearch(t *testing.T, n int) []byte {
	t.Helper()
	present := ber.AppendString(nil, ber.ClassContext, filterPresent, "employeenumber")
	or := make([]byte, 0, n*len(present))
	for i := 0; i < n; i++ {
		or = append(or, present...)
	}
	body := ber.AppendString(nil, ber.ClassUniversal, ber.TagOctetString, "o=xyz")
	body = ber.AppendEnum(body, int64(query.ScopeSubtree))
	body = ber.AppendEnum(body, 0)                                    // derefAliases
	body = ber.AppendInt(body, ber.ClassUniversal, ber.TagInteger, 0) // sizeLimit
	body = ber.AppendInt(body, ber.ClassUniversal, ber.TagInteger, 0) // timeLimit
	body = ber.AppendBool(body, false)
	body = ber.AppendTLV(body, ber.ClassContext, true, filterOr, or)
	body = ber.AppendSequence(body, nil) // attributes
	content, err := ber.NewReader(EncodeWithOpBody(1, &SearchRequest{}, body, nil)).ReadExpect(ber.ClassUniversal, ber.TagSequence)
	if err != nil {
		t.Fatal(err)
	}
	return content
}

// TestWideFilterRefused: a search whose filter is an OR of a million
// presence predicates — 16 MiB, at the message size bound — is a decode
// error, and the decoder gives up before it has built more than
// maxFilterNodes nodes rather than materialising the million.
func TestWideFilterRefused(t *testing.T) {
	n := (maxMessageBytes - 1024) / 16
	msg := wideOrSearch(t, n)
	if len(msg) > maxMessageBytes {
		t.Fatalf("the wide-filter search is %d B, above the %d B message bound", len(msg), maxMessageBytes)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := decodeMessage(msg)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errFilterTooWide) {
		t.Fatalf("an OR of %d presence predicates decoded: %v", n, err)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("OR of %d predicates, %d B: refused after %d B allocated", n, len(msg), allocated)
	if allocated > 1<<20 {
		t.Errorf("refusing the wide filter allocated %d B, want under 1 MiB", allocated)
	}

	// The bound counts the OR itself: maxFilterNodes elements decode.
	if _, err := decodeMessage(wideOrSearch(t, maxFilterNodes-1)); err != nil {
		t.Fatalf("a filter of %d elements was refused: %v", maxFilterNodes, err)
	}
	if _, err := decodeMessage(wideOrSearch(t, maxFilterNodes)); !errors.Is(err, errFilterTooWide) {
		t.Fatalf("a filter of %d elements: %v, want errFilterTooWide", maxFilterNodes+1, err)
	}
}

func TestSortControlRoundTrip(t *testing.T) {
	c := NewSortControl(
		SortKey{Attr: "sn"},
		SortKey{Attr: "serialnumber", Reverse: true},
	)
	keys, err := ParseSortKeys(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0].Attr != "sn" || keys[0].Reverse || !keys[1].Reverse {
		t.Errorf("keys = %+v", keys)
	}
	resp := NewSortResponseControl(0)
	code, err := ParseSortResponse(resp)
	if err != nil || code != 0 {
		t.Errorf("sort response: %d, %v", code, err)
	}
}

// ParseSortResponse decodes the response control's result code.
func ParseSortResponse(c Control) (int64, error) {
	rd := ber.NewReader(c.Value)
	seq, err := rd.ReadSequence()
	if err != nil {
		return 0, fmt.Errorf("sort response control: %w", err)
	}
	return seq.ReadEnum()
}
